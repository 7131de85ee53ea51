//! Index-space slicing: per-axis `start..stop (step)` selections producing
//! owned sub-arrays, the index-level half of CDMS subsetting (the
//! coordinate-level half lives on [`crate::Variable`]).

use super::MaskedArray;
use crate::error::{CdmsError, Result};

/// A per-axis slice specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    /// First index, inclusive.
    pub start: usize,
    /// Last index, exclusive.
    pub stop: usize,
    /// Stride; must be ≥ 1.
    pub step: usize,
}

impl SliceSpec {
    /// A full-axis slice for an axis of length `n`.
    pub fn all(n: usize) -> Self {
        SliceSpec { start: 0, stop: n, step: 1 }
    }

    /// A contiguous range `[start, stop)`.
    pub fn range(start: usize, stop: usize) -> Self {
        SliceSpec { start, stop, step: 1 }
    }

    /// A single-index slice (keeps the axis with length 1).
    pub fn at(i: usize) -> Self {
        SliceSpec { start: i, stop: i + 1, step: 1 }
    }

    /// Number of indices selected.
    pub fn len(&self) -> usize {
        if self.stop <= self.start || self.step == 0 {
            0
        } else {
            (self.stop - self.start).div_ceil(self.step)
        }
    }

    /// True when the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The selected indices.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start..self.stop).step_by(self.step.max(1))
    }
}

impl MaskedArray {
    /// Extracts a sub-array: one [`SliceSpec`] per axis.
    pub fn slice(&self, specs: &[SliceSpec]) -> Result<MaskedArray> {
        if specs.len() != self.rank() {
            return Err(CdmsError::Invalid(format!(
                "need {} slice specs, got {}",
                self.rank(),
                specs.len()
            )));
        }
        for (ax, s) in specs.iter().enumerate() {
            if s.step == 0 {
                return Err(CdmsError::Invalid(format!("zero step on axis {ax}")));
            }
            if s.stop > self.shape()[ax] {
                return Err(CdmsError::AxisOutOfRange { axis: ax, rank: self.shape()[ax] });
            }
            if s.is_empty() {
                return Err(CdmsError::EmptySelection(format!(
                    "axis {ax}: {}..{} step {}",
                    s.start, s.stop, s.step
                )));
            }
        }
        let out_shape: Vec<usize> = specs.iter().map(|s| s.len()).collect();
        let n: usize = out_shape.iter().product();
        let strides = self.strides();
        let mut data = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        // The output is built a row at a time: the innermost axis's
        // selection is one run of the source, copied whole at step 1.
        // `idx` is the row's multi-index over the axes before it (a rank-0
        // array is one row of its one element).
        let scalar = SliceSpec::at(0);
        let (row, outer) = specs.split_last().unwrap_or((&scalar, &[]));
        let row_len = row.len();
        let rows: usize = outer.iter().map(SliceSpec::len).product();
        let mut idx = vec![0usize; outer.len()];
        for _ in 0..rows {
            let base = outer
                .iter()
                .zip(&idx)
                .zip(&strides)
                .map(|((s, &i), &stride)| (s.start + i * s.step) * stride)
                .sum::<usize>()
                + row.start;
            let (src, src_mask) = (&self.data()[base..], &self.mask()[base..]);
            if row.step == 1 {
                data.extend_from_slice(&src[..row_len]);
                mask.extend_from_slice(&src_mask[..row_len]);
            } else {
                data.extend(src.iter().step_by(row.step).take(row_len));
                mask.extend(src_mask.iter().step_by(row.step).take(row_len));
            }
            for (i, s) in idx.iter_mut().zip(outer).rev() {
                *i += 1;
                if *i < s.len() {
                    break;
                }
                *i = 0;
            }
        }
        MaskedArray::with_mask(data, mask, &out_shape)
    }

    /// Extracts the `i`-th hyperslab along `axis`, dropping that axis.
    /// E.g. `take(0, t)` pulls timestep `t` out of a `(time, lev, lat, lon)`
    /// variable as a `(lev, lat, lon)` array.
    pub fn take(&self, axis: usize, i: usize) -> Result<MaskedArray> {
        if axis >= self.rank() {
            return Err(CdmsError::AxisOutOfRange { axis, rank: self.rank() });
        }
        let mut specs: Vec<SliceSpec> =
            self.shape().iter().map(|&n| SliceSpec::all(n)).collect();
        specs[axis] = SliceSpec::at(i);
        let sliced = self.slice(&specs)?;
        let mut shape = self.shape().to_vec();
        shape.remove(axis);
        if shape.is_empty() {
            shape.push(1);
        }
        sliced.reshape(&shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-element definition of [`MaskedArray::slice`] for specs it
    /// accepts: every output element's source index recomputed from its
    /// multi-index.
    fn slice_oracle(a: &MaskedArray, specs: &[SliceSpec]) -> MaskedArray {
        let out_shape: Vec<usize> = specs.iter().map(|s| s.len()).collect();
        let n: usize = out_shape.iter().product();
        let strides = a.strides();
        let mut data = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut idx = vec![0usize; out_shape.len()];
        for _ in 0..n {
            let mut src = 0usize;
            for ax in 0..out_shape.len() {
                src += (specs[ax].start + idx[ax] * specs[ax].step) * strides[ax];
            }
            data.push(a.data()[src]);
            mask.push(a.mask()[src]);
            for ax in (0..out_shape.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        MaskedArray::with_mask(data, mask, &out_shape).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]
        /// `slice` and `take` against the oracle: ranks 1–4, axes of length
        /// 1–5, random masks, and any start, stop and step on every axis,
        /// the innermost included. One axis in four gets a spec drawn
        /// without regard to validity, which both must refuse alike.
        #[test]
        fn slice_and_take_are_the_per_element_definition(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rank = rng.gen_range(1usize..=4);
            let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1usize..=5)).collect();
            let n: usize = shape.iter().product();
            let masked = rng.gen_f64();
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(masked)).collect();
            let a = MaskedArray::with_mask((0..n).map(|i| i as f32).collect(), mask, &shape)
                .unwrap();
            let specs: Vec<SliceSpec> = shape
                .iter()
                .map(|&d| {
                    if rng.gen_bool(0.25) {
                        let (start, stop) = (rng.gen_range(0..=d + 1), rng.gen_range(0..=d + 1));
                        SliceSpec { start, stop, step: rng.gen_range(0usize..=3) }
                    } else {
                        let start = rng.gen_range(0..d);
                        let stop = rng.gen_range(start + 1..=d);
                        SliceSpec { start, stop, step: rng.gen_range(1usize..=d + 1) }
                    }
                })
                .collect();
            let valid =
                specs.iter().zip(&shape).all(|(s, &d)| s.step > 0 && s.stop <= d && !s.is_empty());
            match a.slice(&specs) {
                Ok(got) => {
                    proptest::prop_assert!(valid, "{:?} on {:?} accepted", specs, shape);
                    let want = slice_oracle(&a, &specs);
                    proptest::prop_assert_eq!(got, want, "{:?} on {:?}", specs, shape);
                }
                Err(_) => proptest::prop_assert!(!valid, "{:?} on {:?} refused", specs, shape),
            }
            let axis = rng.gen_range(0..rank);
            let i = rng.gen_range(0..shape[axis]);
            let mut at: Vec<SliceSpec> = shape.iter().map(|&d| SliceSpec::all(d)).collect();
            at[axis] = SliceSpec::at(i);
            let want = slice_oracle(&a, &at);
            let mut dropped = shape.clone();
            dropped.remove(axis);
            if dropped.is_empty() {
                dropped.push(1);
            }
            let got = a.take(axis, i).unwrap();
            proptest::prop_assert_eq!(got.shape(), &dropped[..]);
            proptest::prop_assert_eq!((got.data(), got.mask()), (want.data(), want.mask()));
        }
    }

    fn arange(shape: &[usize]) -> MaskedArray {
        let n: usize = shape.iter().product();
        MaskedArray::from_vec((0..n).map(|i| i as f32).collect(), shape).unwrap()
    }

    #[test]
    fn spec_len_and_indices() {
        let s = SliceSpec { start: 1, stop: 8, step: 3 };
        assert_eq!(s.len(), 3);
        assert_eq!(s.indices().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(SliceSpec::at(2).len(), 1);
        assert!(SliceSpec::range(3, 3).is_empty());
    }

    #[test]
    fn contiguous_slice() {
        let a = arange(&[3, 4]);
        let b = a.slice(&[SliceSpec::range(1, 3), SliceSpec::range(0, 2)]).unwrap();
        assert_eq!(b.shape(), &[2, 2]);
        assert_eq!(b.data(), &[4.0, 5.0, 8.0, 9.0]);
    }

    #[test]
    fn strided_slice() {
        let a = arange(&[6]);
        let b = a.slice(&[SliceSpec { start: 0, stop: 6, step: 2 }]).unwrap();
        assert_eq!(b.data(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn slice_preserves_mask() {
        let mut a = arange(&[2, 2]);
        a.mask_at(&[1, 0]).unwrap();
        let b = a.slice(&[SliceSpec::at(1), SliceSpec::all(2)]).unwrap();
        assert_eq!(b.get_valid(&[0, 0]).unwrap(), None);
        assert_eq!(b.get_valid(&[0, 1]).unwrap(), Some(3.0));
    }

    #[test]
    fn slice_errors() {
        let a = arange(&[2, 2]);
        assert!(a.slice(&[SliceSpec::all(2)]).is_err()); // wrong arity
        assert!(a.slice(&[SliceSpec::range(0, 3), SliceSpec::all(2)]).is_err()); // overrun
        assert!(a
            .slice(&[SliceSpec { start: 0, stop: 2, step: 0 }, SliceSpec::all(2)])
            .is_err()); // zero step
        assert!(a.slice(&[SliceSpec::range(1, 1), SliceSpec::all(2)]).is_err()); // empty
    }

    #[test]
    fn take_drops_axis() {
        let a = arange(&[2, 3, 4]);
        let t = a.take(0, 1).unwrap();
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.get(&[0, 0]).unwrap(), 12.0);
        let l = a.take(1, 2).unwrap();
        assert_eq!(l.shape(), &[2, 4]);
        assert_eq!(l.get(&[0, 0]).unwrap(), 8.0);
        assert!(a.take(3, 0).is_err());
    }

    #[test]
    fn take_on_1d_keeps_rank_1() {
        let a = arange(&[3]);
        let t = a.take(0, 2).unwrap();
        assert_eq!(t.shape(), &[1]);
        assert_eq!(t.data(), &[2.0]);
    }
}
