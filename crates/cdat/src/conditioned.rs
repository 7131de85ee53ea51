//! Stepwise threshold masks on a whole variable — `MV2.masked_greater` and
//! `masked_less` — kept as the reference the fused pipeline's
//! `AnalysisStep::{MaskGreater, MaskLess}` is held to bit for bit. The
//! product reaches conditioned comparisons through those steps and
//! [`crate::expr::Expr::mask_where`].

use crate::expr::{Expr, PredFn};
use cdms::{Result, Variable};

fn masked_pred(var: &Variable, pred: PredFn<'_>) -> Result<Variable> {
    let arr = Expr::leaf(&var.array).mask_where(pred).eval()?;
    let mut v = Variable::new(&var.id, arr, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Masks elements greater than `threshold`.
pub(crate) fn masked_greater(var: &Variable, threshold: f32) -> Result<Variable> {
    masked_pred(var, PredFn::Greater(threshold))
}

/// Masks elements less than `threshold`.
pub(crate) fn masked_less(var: &Variable, threshold: f32) -> Result<Variable> {
    masked_pred(var, PredFn::Less(threshold))
}
