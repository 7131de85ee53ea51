//! Element-wise arithmetic with numpy-style broadcasting and mask
//! propagation: an output element is masked wherever *either* operand is.

use super::{strides_for, MaskedArray};
use crate::error::{CdmsError, Result};

/// The binary operations supported by [`MaskedArray::binop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Max,
}

impl BinOp {
    /// Applies the operation to a pair of scalars.
    ///
    /// Division by zero yields a NaN, which callers mask.
    pub(crate) fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    f32::NAN
                } else {
                    a / b
                }
            }
            BinOp::Pow => a.powf(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// Computes the broadcast shape of two shapes, numpy rules: align trailing
/// axes; a dimension broadcasts if equal or one side is 1.
pub(crate) fn broadcast_shape(a: &[usize], b: &[usize]) -> Result<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return Err(CdmsError::ShapeMismatch { expected: a.to_vec(), got: b.to_vec() });
        };
    }
    Ok(out)
}

/// Broadcast-aware strides: stride 0 for broadcast (size-1 or missing) axes.
fn broadcast_strides(shape: &[usize], out_rank: usize) -> Vec<usize> {
    let strides = strides_for(shape);
    let mut out = vec![0usize; out_rank];
    let offset = out_rank - shape.len();
    for (i, (&d, &s)) in shape.iter().zip(&strides).enumerate() {
        out[offset + i] = if d == 1 { 0 } else { s };
    }
    out
}

impl MaskedArray {
    /// Element-wise binary operation with broadcasting and mask propagation.
    pub fn binop(&self, other: &MaskedArray, op: BinOp) -> Result<MaskedArray> {
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            let n = self.len();
            let mut data = Vec::with_capacity(n);
            let mut mask = Vec::with_capacity(n);
            for i in 0..n {
                let m = self.mask()[i] || other.mask()[i];
                let v = if m { 0.0 } else { op.apply(self.data()[i], other.data()[i]) };
                mask.push(m || v.is_nan());
                data.push(if v.is_nan() { 0.0 } else { v });
            }
            return MaskedArray::with_mask(data, mask, self.shape());
        }

        let out_shape = broadcast_shape(self.shape(), other.shape())?;
        let sa = broadcast_strides(self.shape(), out_shape.len());
        let sb = broadcast_strides(other.shape(), out_shape.len());
        let n: usize = out_shape.iter().product();
        let mut data = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut idx = vec![0usize; out_shape.len()];
        for _ in 0..n {
            let (mut oa, mut ob) = (0usize, 0usize);
            for ax in 0..out_shape.len() {
                oa += idx[ax] * sa[ax];
                ob += idx[ax] * sb[ax];
            }
            let m = self.mask()[oa] || other.mask()[ob];
            let v = if m { 0.0 } else { op.apply(self.data()[oa], other.data()[ob]) };
            mask.push(m || v.is_nan());
            data.push(if v.is_nan() { 0.0 } else { v });
            for ax in (0..out_shape.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        MaskedArray::with_mask(data, mask, &out_shape)
    }

    /// `self + other` with broadcasting.
    pub fn add(&self, other: &MaskedArray) -> Result<MaskedArray> {
        self.binop(other, BinOp::Add)
    }
    /// `self * other` with broadcasting.
    pub fn mul(&self, other: &MaskedArray) -> Result<MaskedArray> {
        self.binop(other, BinOp::Mul)
    }
    /// `self / other` with broadcasting; division by zero masks the result.
    pub fn div(&self, other: &MaskedArray) -> Result<MaskedArray> {
        self.binop(other, BinOp::Div)
    }

    /// Applies a unary function to every valid element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> MaskedArray {
        let mut out = self.clone();
        for i in 0..out.len() {
            if !out.mask()[i] {
                let v = f(out.data()[i]);
                if v.is_nan() || v.is_infinite() {
                    out.mask_mut()[i] = true;
                } else {
                    out.data_mut()[i] = v;
                }
            }
        }
        out
    }

    /// Adds a scalar to every valid element.
    pub fn add_scalar(&self, s: f32) -> MaskedArray {
        self.map(|v| v + s)
    }

    /// Multiplies every valid element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> MaskedArray {
        self.map(|v| v * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2x3() -> MaskedArray {
        MaskedArray::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap()
    }

    #[test]
    fn same_shape_add() {
        let a = a2x3();
        let b = MaskedArray::filled(10.0, &[2, 3]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.data(), &[10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn mask_propagates_through_binop() {
        let mut a = a2x3();
        a.mask_at(&[0, 1]).unwrap();
        let mut b = MaskedArray::filled(1.0, &[2, 3]);
        b.mask_at(&[1, 2]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.get_valid(&[0, 1]).unwrap(), None);
        assert_eq!(c.get_valid(&[1, 2]).unwrap(), None);
        assert_eq!(c.valid_count(), 4);
    }

    #[test]
    fn broadcast_row_across_matrix() {
        let a = a2x3();
        let row = MaskedArray::from_vec(vec![100.0, 200.0, 300.0], &[3]).unwrap();
        let c = a.add(&row).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.get(&[1, 2]).unwrap(), 305.0);
    }

    #[test]
    fn broadcast_column_via_size_one_axis() {
        let a = a2x3();
        let col = MaskedArray::from_vec(vec![10.0, 20.0], &[2, 1]).unwrap();
        let c = a.add(&col).unwrap();
        assert_eq!(c.get(&[0, 0]).unwrap(), 10.0);
        assert_eq!(c.get(&[1, 0]).unwrap(), 23.0);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = a2x3();
        let b = MaskedArray::filled(0.0, &[2, 4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn broadcast_shape_rules() {
        assert_eq!(broadcast_shape(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shape(&[2, 1], &[1, 5]).unwrap(), vec![2, 5]);
        assert_eq!(broadcast_shape(&[4], &[4]).unwrap(), vec![4]);
        assert!(broadcast_shape(&[2, 3], &[2, 4]).is_err());
    }

    #[test]
    fn division_by_zero_masks() {
        let a = MaskedArray::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = MaskedArray::from_vec(vec![0.0, 2.0], &[2]).unwrap();
        let c = a.div(&b).unwrap();
        assert_eq!(c.get_valid(&[0]).unwrap(), None);
        assert_eq!(c.get_valid(&[1]).unwrap(), Some(1.0));
    }

    #[test]
    fn map_masks_non_finite_results() {
        let a = MaskedArray::from_vec(vec![-1.0, 4.0], &[2]).unwrap();
        let b = a.map(|v| v.sqrt());
        assert_eq!(b.get_valid(&[0]).unwrap(), None);
        assert_eq!(b.get_valid(&[1]).unwrap(), Some(2.0));
    }

    #[test]
    fn scalar_ops() {
        let a = a2x3();
        assert_eq!(a.add_scalar(1.0).get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(a.mul_scalar(2.0).get(&[1, 2]).unwrap(), 10.0);
    }

    #[test]
    fn binop_min_max_pow() {
        let a = MaskedArray::from_vec(vec![2.0, 5.0], &[2]).unwrap();
        let b = MaskedArray::from_vec(vec![3.0, 3.0], &[2]).unwrap();
        assert_eq!(a.binop(&b, BinOp::Min).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.binop(&b, BinOp::Max).unwrap().data(), &[3.0, 5.0]);
        assert_eq!(a.binop(&b, BinOp::Pow).unwrap().data(), &[8.0, 125.0]);
    }
}
