//! Masked n-dimensional arrays — the CDMS "transient variable" payload.
//!
//! [`MaskedArray`] stores row-major `f32` data plus a per-element validity
//! mask (`true` = *masked out*, i.e. missing, matching `numpy.ma` semantics).
//! All arithmetic propagates masks; reductions skip masked elements.

pub mod mask;
mod ops;
mod reduce;
mod slice;

pub use ops::BinOp;
pub use reduce::Reduction;
pub(crate) use slice::SliceSpec;

use crate::error::{CdmsError, Result};

/// Row-major n-dimensional array of `f32` with an element-wise mask.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedArray {
    data: Vec<f32>,
    /// `true` means the element is masked (missing).
    mask: Vec<bool>,
    shape: Vec<usize>,
}

/// Computes row-major strides for `shape`.
pub(crate) fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl MaskedArray {
    /// Creates an array from raw data; no elements are masked.
    ///
    /// Fails if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let n: usize = shape.iter().product();
        if data.len() != n {
            return Err(CdmsError::ShapeMismatch {
                expected: vec![n],
                got: vec![data.len()],
            });
        }
        Ok(Self { mask: vec![false; data.len()], data, shape: shape.to_vec() })
    }

    /// Creates an array with an explicit mask.
    pub fn with_mask(data: Vec<f32>, mask: Vec<bool>, shape: &[usize]) -> Result<Self> {
        if data.len() != mask.len() {
            return Err(CdmsError::Invalid("data/mask length mismatch".into()));
        }
        let mut a = Self::from_vec(data, shape)?;
        a.mask = mask;
        Ok(a)
    }

    /// An all-valid array filled with `value`.
    pub fn filled(value: f32, shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self { data: vec![value; n], mask: vec![false; n], shape: shape.to_vec() }
    }

    /// An all-valid array of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(0.0, shape)
    }

    /// A fully masked array (every element missing).
    pub fn all_masked(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self { data: vec![0.0; n], mask: vec![true; n], shape: shape.to_vec() }
    }

    /// Builds an array by evaluating `f` at every multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..n {
            data.push(f(&idx));
            // increment multi-index, last axis fastest
            for ax in (0..shape.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        Self { mask: vec![false; n], data, shape: shape.to_vec() }
    }

    /// The array's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements (valid + masked).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        strides_for(&self.shape)
    }

    /// Raw data slice (masked positions contain unspecified values).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Mask slice (`true` = masked).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Mutable mask slice.
    pub fn mask_mut(&mut self) -> &mut [bool] {
        &mut self.mask
    }

    /// Mutable data and mask slices together — the borrow splitter the
    /// in-place parallel kernels need (`data_mut`/`mask_mut` can't be held
    /// at once).
    pub fn parts_mut(&mut self) -> (&mut [f32], &mut [bool]) {
        (&mut self.data, &mut self.mask)
    }

    /// Flat offset of a multi-index.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() {
            return Err(CdmsError::ShapeMismatch {
                expected: self.shape.clone(),
                got: index.to_vec(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (ax, (&i, &s)) in index.iter().zip(&strides).enumerate() {
            if i >= self.shape[ax] {
                return Err(CdmsError::AxisOutOfRange { axis: ax, rank: self.shape[ax] });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Element at `index` regardless of mask state.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Element at `index`, or `None` if masked.
    pub fn get_valid(&self, index: &[usize]) -> Result<Option<f32>> {
        let off = self.offset(index)?;
        Ok(if self.mask[off] { None } else { Some(self.data[off]) })
    }

    /// Masks out the element at `index`.
    pub fn mask_at(&mut self, index: &[usize]) -> Result<()> {
        let off = self.offset(index)?;
        self.mask[off] = true;
        Ok(())
    }

    /// Number of valid (unmasked) elements.
    pub fn valid_count(&self) -> usize {
        self.mask.iter().filter(|&&m| !m).count()
    }

    /// Fraction of elements that are valid, in `[0, 1]`. Empty arrays are 0.
    pub fn valid_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.valid_count() as f64 / self.len() as f64
        }
    }

    /// Iterator over `(flat_index, value)` of valid elements.
    pub(crate) fn iter_valid(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.data
            .iter()
            .zip(&self.mask)
            .enumerate()
            .filter_map(|(i, (&v, &m))| if m { None } else { Some((i, v)) })
    }

    /// Minimum and maximum over valid elements, NaNs skipped; `None` when no
    /// valid non-NaN element is left. A valid ±∞ counts; of two equal zeros
    /// either may come back. The lane fold of `rvtk::image_data::value_range`
    /// (DESIGN §29) with a mask: a masked element enters as NaN, which
    /// compares false both ways. `cdms` does not link `rvtk`, so this copy
    /// is deliberate.
    pub fn min_max(&self) -> Option<(f32, f32)> {
        const LANES: usize = 8;
        let mut lo = [f32::INFINITY; LANES];
        let mut hi = [f32::NEG_INFINITY; LANES];
        let (data, mask) = (self.data.chunks_exact(LANES), self.mask.chunks_exact(LANES));
        let tails = (data.remainder(), mask.remainder());
        for (chunk, masked) in data.zip(mask).chain([tails]) {
            for (((l, h), &v), &m) in lo.iter_mut().zip(&mut hi).zip(chunk).zip(masked) {
                let v = if m { f32::NAN } else { v };
                *l = if v < *l { v } else { *l };
                *h = if v > *h { v } else { *h };
            }
        }
        let lo = lo.into_iter().fold(f32::INFINITY, |a, v| if v < a { v } else { a });
        let hi = hi.into_iter().fold(f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
        // any value taken leaves lo ≤ hi; none leaves the seeds, +∞ > −∞
        (lo <= hi).then_some((lo, hi))
    }

    /// Reinterprets the array with a new shape of identical element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != self.len() {
            return Err(CdmsError::ShapeMismatch {
                expected: self.shape.clone(),
                got: shape.to_vec(),
            });
        }
        Ok(Self { data: self.data.clone(), mask: self.mask.clone(), shape: shape.to_vec() })
    }

    /// Permutes axes: `perm[i]` is the source axis of destination axis `i`.
    pub fn transpose(&self, perm: &[usize]) -> Result<Self> {
        if perm.len() != self.rank() {
            return Err(CdmsError::Invalid(format!(
                "permutation length {} != rank {}",
                perm.len(),
                self.rank()
            )));
        }
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            if p >= self.rank() || seen[p] {
                return Err(CdmsError::Invalid(format!("bad permutation {perm:?}")));
            }
            seen[p] = true;
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let src_strides = self.strides();
        let n = self.len();
        let mut data = vec![0.0f32; n];
        let mut mask = vec![false; n];
        let mut idx = vec![0usize; new_shape.len()];
        for flat in 0..n {
            let mut src = 0usize;
            for (dst_ax, &src_ax) in perm.iter().enumerate() {
                src += idx[dst_ax] * src_strides[src_ax];
            }
            data[flat] = self.data[src];
            mask[flat] = self.mask[src];
            for ax in (0..new_shape.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < new_shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        Ok(Self { data, mask, shape: new_shape })
    }

    /// Concatenates arrays along `axis`. All other dimensions must agree.
    pub fn concat(parts: &[&MaskedArray], axis: usize) -> Result<Self> {
        let first = parts.first().ok_or_else(|| CdmsError::Invalid("concat of nothing".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(CdmsError::AxisOutOfRange { axis, rank });
        }
        let mut out_shape = first.shape.clone();
        let mut total = 0usize;
        for p in parts {
            if p.rank() != rank {
                return Err(CdmsError::ShapeMismatch {
                    expected: first.shape.clone(),
                    got: p.shape.clone(),
                });
            }
            for ax in 0..rank {
                if ax != axis && p.shape[ax] != first.shape[ax] {
                    return Err(CdmsError::ShapeMismatch {
                        expected: first.shape.clone(),
                        got: p.shape.clone(),
                    });
                }
            }
            total += p.shape[axis];
        }
        out_shape[axis] = total;

        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let n: usize = out_shape.iter().product();
        let mut data = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        for o in 0..outer {
            for p in parts {
                let k = p.shape[axis];
                let start = o * k * inner;
                data.extend_from_slice(&p.data[start..start + k * inner]);
                mask.extend_from_slice(&p.mask[start..start + k * inner]);
            }
        }
        Ok(Self { data, mask, shape: out_shape })
    }
}

#[cfg(test)]
impl MaskedArray {
    /// Sets the element at `index` and marks it valid.
    pub(crate) fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        self.mask[off] = false;
        Ok(())
    }

    /// Removes all length-1 dimensions (keeps at least rank 1).
    pub(crate) fn squeeze(&self) -> Self {
        let mut shape: Vec<usize> = self.shape.iter().copied().filter(|&d| d != 1).collect();
        if shape.is_empty() {
            shape.push(1);
        }
        Self { data: self.data.clone(), mask: self.mask.clone(), shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange(shape: &[usize]) -> MaskedArray {
        let n: usize = shape.iter().product();
        MaskedArray::from_vec((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let a = arange(&[2, 3]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(a.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(a.strides(), vec![3, 1]);
        assert!(a.get(&[2, 0]).is_err());
        assert!(a.get(&[0]).is_err());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(MaskedArray::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn mask_operations() {
        let mut a = arange(&[2, 2]);
        assert_eq!(a.valid_count(), 4);
        a.mask_at(&[0, 1]).unwrap();
        assert_eq!(a.valid_count(), 3);
        assert_eq!(a.get_valid(&[0, 1]).unwrap(), None);
        a.set(&[0, 1], 9.0).unwrap();
        assert_eq!(a.get_valid(&[0, 1]).unwrap(), Some(9.0));
    }

    #[test]
    fn from_fn_row_major_order() {
        let a = MaskedArray::from_fn(&[2, 3], |ix| (ix[0] * 10 + ix[1]) as f32);
        assert_eq!(a.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn min_max_skips_masked() {
        let a =
            MaskedArray::with_mask(vec![5.0, -1.0, 100.0], vec![false, false, true], &[3]).unwrap();
        assert_eq!(a.min_max(), Some((-1.0, 5.0)));
        assert_eq!(MaskedArray::all_masked(&[3]).min_max(), None);
    }

    #[test]
    fn min_max_skips_nan_wherever_it_sits() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        // lengths below, at and past one group of eight lanes
        for n in [5, 8, 9, 17, 30] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 1.5 - 6.0).collect();
            let top = (n - 1) as f32 * 1.5 - 6.0;
            let range = |d: Vec<f32>| MaskedArray::from_vec(d, &[n]).unwrap().min_max();
            assert_eq!(range(data.clone()), Some((-6.0, top)));
            for (at, want) in [(0, (-4.5, top)), (n / 2, (-6.0, top)), (n - 1, (-6.0, top - 1.5))] {
                let mut holed = data.clone();
                holed[at] = nan;
                assert_eq!(range(holed), Some(want), "n {n}, NaN at {at}");
            }
            assert_eq!(range(vec![nan; n]), None, "only NaN in valid lanes");
            // NaN and ±∞ under the mask are ignored, wherever they sit
            let mut hidden = data.clone();
            let mut mask = vec![false; n];
            for (at, v) in [(0, nan), (n / 2, inf), (n - 1, -inf)] {
                hidden[at] = v;
                mask[at] = true;
            }
            let a = MaskedArray::with_mask(hidden, mask.clone(), &[n]).unwrap();
            assert_eq!(a.min_max(), Some((-4.5, top - 1.5)), "n {n}");
            let a = MaskedArray::with_mask(vec![nan; n], mask, &[n]).unwrap();
            assert_eq!(a.min_max(), None, "n {n}: the valid lanes hold only NaN");
        }
        // a valid ±∞ counts
        let a = MaskedArray::from_vec(vec![nan, -inf, 2.0, inf], &[4]).unwrap();
        assert_eq!(a.min_max(), Some((-inf, inf)));
    }

    #[test]
    fn reshape_and_squeeze() {
        let a = arange(&[2, 3]);
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.get(&[1, 1]).unwrap(), 3.0);
        assert!(a.reshape(&[4]).is_err());
        let c = arange(&[1, 3, 1]).squeeze();
        assert_eq!(c.shape(), &[3]);
        let d = MaskedArray::filled(1.0, &[1, 1]).squeeze();
        assert_eq!(d.shape(), &[1]);
    }

    #[test]
    fn transpose_2d() {
        let a = arange(&[2, 3]);
        let t = a.transpose(&[1, 0]).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), a.get(&[1, 2]).unwrap());
        assert!(a.transpose(&[0, 0]).is_err());
        assert!(a.transpose(&[0]).is_err());
    }

    #[test]
    fn transpose_3d_preserves_mask() {
        let mut a = arange(&[2, 3, 4]);
        a.mask_at(&[1, 2, 3]).unwrap();
        let t = a.transpose(&[2, 0, 1]).unwrap();
        assert_eq!(t.shape(), &[4, 2, 3]);
        assert_eq!(t.get_valid(&[3, 1, 2]).unwrap(), None);
        assert_eq!(t.get(&[0, 1, 1]).unwrap(), a.get(&[1, 1, 0]).unwrap());
    }

    #[test]
    fn concat_along_each_axis() {
        let a = arange(&[2, 2]);
        let b = MaskedArray::filled(9.0, &[2, 2]);
        let c0 = MaskedArray::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[4, 2]);
        assert_eq!(c0.get(&[2, 0]).unwrap(), 9.0);
        let c1 = MaskedArray::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[2, 4]);
        assert_eq!(c1.get(&[0, 2]).unwrap(), 9.0);
        assert_eq!(c1.get(&[1, 1]).unwrap(), 3.0);
    }

    #[test]
    fn concat_shape_errors() {
        let a = arange(&[2, 2]);
        let b = arange(&[2, 3]);
        assert!(MaskedArray::concat(&[&a, &b], 0).is_err());
        assert!(MaskedArray::concat(&[&a, &b], 2).is_err());
        assert!(MaskedArray::concat(&[], 0).is_err());
    }
}
