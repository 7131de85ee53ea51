//! Variable-level arithmetic: binary ops that check domains and propagate
//! masks, and unary transforms that keep metadata intact.
//!
//! These public functions are thin eager wrappers over the fused
//! expression engine ([`crate::expr`]): each call compiles its op chain
//! (a single op here, but `magnitude` fuses four) into one chunked pass
//! with bit-packed mask words, evaluated in parallel. Results are
//! bit-identical to the pre-fusion `cdms` eager ops.

use crate::expr::Expr;
use cdms::array::BinOp;
use cdms::{CdmsError, Result, Variable};

/// Checks two variables share compatible domains (same shape; axis values
/// equal within tolerance for same-length axes).
pub(crate) fn check_domains(a: &Variable, b: &Variable) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(CdmsError::ShapeMismatch {
            expected: a.shape().to_vec(),
            got: b.shape().to_vec(),
        });
    }
    for (ax_a, ax_b) in a.axes.iter().zip(&b.axes) {
        if ax_a.len() == ax_b.len() {
            let mismatch = ax_a
                .values
                .iter()
                .zip(&ax_b.values)
                .any(|(x, y)| (x - y).abs() > 1e-6);
            if mismatch {
                return Err(CdmsError::Invalid(format!(
                    "axes '{}' and '{}' have different coordinates",
                    ax_a.id, ax_b.id
                )));
            }
        }
    }
    Ok(())
}

fn binary(a: &Variable, b: &Variable, op: BinOp, id: &str) -> Result<Variable> {
    check_domains(a, b)?;
    let array = Expr::leaf(&a.array).binop(op, Expr::leaf(&b.array)).eval()?;
    let mut v = Variable::new(id, array, a.axes.clone())?;
    v.attributes = a.attributes.clone();
    Ok(v)
}

/// `a + b`.
pub fn add(a: &Variable, b: &Variable) -> Result<Variable> {
    binary(a, b, BinOp::Add, &format!("{}_plus_{}", a.id, b.id))
}

/// `a - b`.
pub fn sub(a: &Variable, b: &Variable) -> Result<Variable> {
    binary(a, b, BinOp::Sub, &format!("{}_minus_{}", a.id, b.id))
}

/// `a * b`.
pub fn mul(a: &Variable, b: &Variable) -> Result<Variable> {
    binary(a, b, BinOp::Mul, &format!("{}_times_{}", a.id, b.id))
}

/// `a / b` (division by zero masks).
pub fn div(a: &Variable, b: &Variable) -> Result<Variable> {
    binary(a, b, BinOp::Div, &format!("{}_over_{}", a.id, b.id))
}

/// Adds a scalar.
pub fn add_scalar(a: &Variable, s: f32) -> Result<Variable> {
    let array = Expr::leaf(&a.array).add_scalar(s).eval()?;
    let mut v = Variable::new(&a.id, array, a.axes.clone())?;
    v.attributes = a.attributes.clone();
    Ok(v)
}

/// Multiplies by a scalar.
pub fn mul_scalar(a: &Variable, s: f32) -> Result<Variable> {
    let array = Expr::leaf(&a.array).mul_scalar(s).eval()?;
    let mut v = Variable::new(&a.id, array, a.axes.clone())?;
    v.attributes = a.attributes.clone();
    Ok(v)
}

/// Applies `f` to every valid element; a non-finite result masks the
/// element. The fused map runs chunked in parallel.
pub fn apply_sync(
    a: &Variable,
    id: &str,
    f: impl Fn(f32) -> f32 + Send + Sync,
) -> Result<Variable> {
    let array = Expr::leaf(&a.array).apply(f).eval()?;
    let mut v = Variable::new(id, array, a.axes.clone())?;
    v.attributes = a.attributes.clone();
    Ok(v)
}

/// Wind speed `sqrt(u² + v²)` from two components — one fused pass, no
/// materialized `u²`/`v²`/`u²+v²` intermediates.
pub fn magnitude(u: &Variable, v: &Variable) -> Result<Variable> {
    check_domains(u, v)?;
    let speed = (Expr::leaf(&u.array) * Expr::leaf(&u.array)
        + Expr::leaf(&v.array) * Expr::leaf(&v.array))
    .sqrt()
    .eval()?;
    let mut out = Variable::new("speed", speed, u.axes.clone())?;
    out.attributes = u.attributes.clone();
    out.attributes.insert("long_name".into(), "wind speed".into());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::synth::SynthesisSpec;
    use cdms::{Axis, MaskedArray};

    fn two_vars() -> (Variable, Variable) {
        let ds = SynthesisSpec::new(2, 2, 4, 8).build();
        (ds.variable("ta").unwrap().clone(), ds.variable("zg").unwrap().clone())
    }

    #[test]
    fn add_sub_roundtrip() {
        let (a, b) = two_vars();
        let sum = add(&a, &b).unwrap();
        let back = sub(&sum, &b).unwrap();
        for (x, y) in back.array.data().iter().zip(a.array.data()) {
            assert!((x - y).abs() < 1.0, "{x} vs {y}"); // zg is large; f32 rounding
        }
        assert_eq!(sum.shape(), a.shape());
        assert_eq!(sum.axes, a.axes);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (a, _) = two_vars();
        let other = SynthesisSpec::new(2, 2, 5, 8).build();
        let b = other.variable("ta").unwrap();
        assert!(add(&a, b).is_err());
    }

    #[test]
    fn coordinate_mismatch_rejected() {
        let (a, _) = two_vars();
        let mut b = a.clone();
        // shift the latitude axis
        let new_lat = Axis::latitude(b.axes[2].values.iter().map(|v| v + 1.0).collect()).unwrap();
        b.axes[2] = new_lat;
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn scalar_ops_preserve_metadata() {
        let (a, _) = two_vars();
        let c = add_scalar(&a, -273.15).unwrap();
        assert_eq!(c.units(), a.units());
        assert!((c.array.mean().unwrap() - (a.array.mean().unwrap() - 273.15)).abs() < 1e-3);
        let k = mul_scalar(&a, 2.0).unwrap();
        assert!((k.array.mean().unwrap() - 2.0 * a.array.mean().unwrap()).abs() < 1e-2);
    }

    #[test]
    fn division_by_zero_masks() {
        let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
        let a = Variable::new(
            "a",
            MaskedArray::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
            vec![lat.clone()],
        )
        .unwrap();
        let b = Variable::new(
            "b",
            MaskedArray::from_vec(vec![0.0, 2.0], &[2]).unwrap(),
            vec![lat],
        )
        .unwrap();
        let q = div(&a, &b).unwrap();
        assert_eq!(q.array.valid_count(), 1);
    }

    #[test]
    fn wind_speed_magnitude() {
        let ds = SynthesisSpec::new(1, 2, 8, 16).build();
        let u = ds.variable("ua").unwrap();
        let v = ds.variable("va").unwrap();
        let s = magnitude(u, v).unwrap();
        let (lo, _) = s.array.min_max().unwrap();
        assert!(lo >= 0.0);
        // |speed| >= |u| pointwise
        for i in 0..20 {
            assert!(s.array.data()[i] + 1e-4 >= u.array.data()[i].abs());
        }
    }

    #[test]
    fn mul_propagates_masks() {
        let ds = SynthesisSpec::new(1, 1, 8, 16).build();
        let tos = ds.variable("tos").unwrap();
        let prod = mul(tos, tos).unwrap();
        assert_eq!(prod.array.valid_count(), tos.array.valid_count());
    }
}
