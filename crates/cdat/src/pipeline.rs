//! Cross-step pipeline fusion: run a whole analysis recipe
//! (e.g. anomaly → standardize → spatial mean) in a handful of streaming
//! passes instead of materializing every intermediate variable.
//!
//! The single-step fused functions (`climatology::anomaly`,
//! `statistics::standardize`, `averager::spatial_mean`) each make at least
//! one full-size allocation and one or two full-size read passes; chaining
//! them touches the big array ~10 times. This module keeps the field
//! *virtual* — the base data plus a chain of per-lane transforms
//! (`LaneOp`) — and only touches the full array when a reduction needs
//! its values:
//!
//! * elementwise steps (`AddScalar`, the anomaly subtract, the standardize
//!   transform, threshold masks) just extend the chain — zero passes;
//! * `Anomaly` reads the field once for the time mean (a small slab);
//! * `Standardize` reads it once through the chain for the global moments;
//! * `SpatialMean` reads it once through the chain while reducing over
//!   latitude (the longitude reduction then runs on the tiny remainder).
//!
//! Every reduction runs the deterministic kernels of [`crate::reduce`]
//! themselves — not copies of them: the virtual field is handed over as a
//! *row source* (`ChainRows`: copy a run of base lanes, stream the chain
//! over it), the same contract `reduce` reads a materialized array through
//! — and each lane op applies the exact `f32` arithmetic of its
//! single-step counterpart, so a pipeline's output is **bit-identical** to
//! running the fused steps one at a time — just with ~3 full-size passes
//! instead of ~10.
//!
//! The lane ops are selects, not branches: a masked lane's value is
//! computed and thrown away rather than skipped, which lets every op
//! vectorise whatever the mask looks like. Nothing observable depends on
//! it — a select keeps the old value and the old flag exactly where the
//! branch did nothing — but it is why an op must tolerate garbage (NaN, ∞)
//! under a set mask flag.
//!
//! [`run`] borrows its input: the base array is read in place until a step
//! produces an owned one (the anomaly flush, the latitude mean), so a
//! recipe that ends in a reduction never copies the full field.

// Hot path: the pipeline that fuses across steps sits under every analysis call.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::reduce::{self, RowSource};
use cdms::axis::AxisKind;
use cdms::{CdmsError, MaskedArray, Result, Variable};
use rayon::prelude::*;
use std::borrow::Cow;

/// One step of an analysis recipe.
#[derive(Debug, Clone)]
pub enum AnalysisStep {
    /// Departure from the time mean — `climatology::anomaly`.
    Anomaly,
    /// `(x - mean) / std` over valid lanes — `statistics::standardize`.
    Standardize,
    /// Area-weighted mean over latitude then longitude —
    /// `averager::spatial_mean`.
    SpatialMean,
    /// `x + s` — `ops::add_scalar`.
    AddScalar(f32),
    /// `x * s` — `ops::mul_scalar`.
    MulScalar(f32),
    /// Mask lanes where `x > s` — `conditioned::masked_greater`.
    MaskGreater(f32),
    /// Mask lanes where `x < s` — `conditioned::masked_less`.
    MaskLess(f32),
}

/// A deferred per-lane transform. Each variant reproduces the lane
/// arithmetic of its eager counterpart exactly (`f32` rounding at every
/// step), so deferring is invisible in the result bits.
enum LaneOp {
    /// `v + s`; non-finite result masks and keeps the pre-op value.
    AddScalar(f32),
    /// `v * s`; same masking rule.
    MulScalar(f32),
    /// `(v - sub) / div`; same masking rule (the standardize transform).
    SubDiv { sub: f32, div: f32 },
    /// Subtract a broadcast time-mean slab (the anomaly transform): lane
    /// `(o, t, i)` reads slab cell `(o, i)`. Masked slab cells mask the
    /// lane and leave its value untouched.
    SubSlab { slab: MaskedArray, nt: usize, inner: usize },
    /// Mask lanes whose value exceeds the threshold; data untouched.
    MaskGreater(f32),
    /// Mask lanes below the threshold; data untouched.
    MaskLess(f32),
}

impl LaneOp {
    /// Applies the op to a contiguous run of lanes starting at flat index
    /// `start`. For `SubSlab` the caller guarantees the run stays inside
    /// one slab row (see [`apply_chain_run`]), so the referenced slab
    /// cells are contiguous and the op is a straight slice loop — no
    /// per-lane index arithmetic anywhere on the hot path.
    fn apply_run(&self, start: usize, d: &mut [f32], m: &mut [bool]) {
        match self {
            LaneOp::AddScalar(s) => {
                for (v, m) in d.iter_mut().zip(m.iter_mut()) {
                    map_lane(v, m, *v + s);
                }
            }
            LaneOp::MulScalar(s) => {
                for (v, m) in d.iter_mut().zip(m.iter_mut()) {
                    map_lane(v, m, *v * s);
                }
            }
            LaneOp::SubDiv { sub, div } => {
                for (v, m) in d.iter_mut().zip(m.iter_mut()) {
                    map_lane(v, m, (*v - sub) / div);
                }
            }
            LaneOp::SubSlab { slab, nt, inner } => {
                let c0 = (start / (nt * inner)) * inner + start % inner;
                let sd = slab.data().get(c0..c0 + d.len()).unwrap_or_default();
                let sm = slab.mask().get(c0..c0 + d.len()).unwrap_or_default();
                for (((v, m), &sv), &s_m) in
                    d.iter_mut().zip(m.iter_mut()).zip(sd).zip(sm)
                {
                    *m |= s_m;
                    *v = if *m { *v } else { *v - sv };
                }
            }
            LaneOp::MaskGreater(s) => {
                for (v, m) in d.iter().zip(m.iter_mut()) {
                    *m |= *v > *s;
                }
            }
            LaneOp::MaskLess(s) => {
                for (v, m) in d.iter().zip(m.iter_mut()) {
                    *m |= *v < *s;
                }
            }
        }
    }
}

/// Streams the whole chain, op-major, over a contiguous span of lanes
/// starting at flat index `start`. The span is cut so each piece stays
/// inside a single slab row of every `SubSlab` (lane
/// `flat = (o*nt + t)*inner + i` reads slab cell `o*inner + i`, contiguous
/// only while `i` doesn't wrap), paying the div/mod once per piece instead
/// of once per lane.
fn apply_chain_run(chain: &[LaneOp], start: usize, d: &mut [f32], m: &mut [bool]) {
    let total = d.len().min(m.len());
    let (mut off, mut flat) = (0, start);
    while off < total {
        let mut len = total - off;
        for op in chain {
            if let LaneOp::SubSlab { inner, .. } = op {
                len = len.min(inner - flat % inner);
            }
        }
        let dd = d.get_mut(off..off + len).unwrap_or_default();
        let mm = m.get_mut(off..off + len).unwrap_or_default();
        for op in chain {
            op.apply_run(flat, dd, mm);
        }
        off += len;
        flat += len;
    }
}

/// The `MaskedArray::map` lane contract: masked lanes pass through, a
/// non-finite result masks and keeps the pre-op value. Written as selects,
/// so `r` may be computed from a masked lane's garbage.
#[inline]
fn map_lane(v: &mut f32, m: &mut bool, r: f32) {
    *m |= !r.is_finite();
    *v = if *m { *v } else { r };
}

/// The virtual field as a row source: lanes of `base` with the whole chain
/// applied — what `reduce::moments_of` and `reduce::weighted_mean_axis_of`
/// read instead of a materialized array.
struct ChainRows<'f> {
    base: &'f MaskedArray,
    chain: &'f [LaneOp],
}

impl RowSource for ChainRows<'_> {
    fn rows<'a>(
        &'a self,
        start: usize,
        d: &'a mut [f32],
        m: &'a mut [bool],
    ) -> (&'a [f32], &'a [bool]) {
        let lanes = start..start + d.len();
        d.copy_from_slice(self.base.data().get(lanes.clone()).unwrap_or_default());
        m.copy_from_slice(self.base.mask().get(lanes).unwrap_or_default());
        apply_chain_run(self.chain, start, d, m);
        (d, m)
    }
}

/// Materializes the virtual field: one parallel pass applying the whole
/// chain to every lane.
fn materialize(base: &MaskedArray, chain: &[LaneOp]) -> MaskedArray {
    let mut out = base.clone();
    if chain.is_empty() {
        return out;
    }
    let (out_d, out_m) = out.parts_mut();
    const ROW: usize = 4096;
    out_d
        .par_chunks_mut(ROW)
        .zip(out_m.par_chunks_mut(ROW))
        .enumerate()
        .for_each(|(c, (dd, mm))| {
            apply_chain_run(chain, c * ROW, dd, mm);
        });
    out
}

/// [`Variable::axis_index`] for the axes of a variable not assembled yet.
fn axis_index(axes: &[cdms::Axis], kind: AxisKind) -> Option<usize> {
    axes.iter().position(|a| a.kind == kind)
}

/// Runs `steps` over `var` with cross-step fusion. Output (data, mask and
/// axes) is bit-identical to applying the corresponding single-step fused
/// functions in sequence — see the module docs for the pass-count argument.
pub fn run(var: &Variable, steps: &[AnalysisStep]) -> Result<Variable> {
    // the base array stays borrowed until a step produces an owned one
    let mut array = Cow::Borrowed(&var.array);
    let (mut id, mut axes) = (var.id.clone(), var.axes.clone());
    let mut chain: Vec<LaneOp> = Vec::new();
    for step in steps {
        match step {
            AnalysisStep::AddScalar(s) => chain.push(LaneOp::AddScalar(*s)),
            AnalysisStep::MulScalar(s) => chain.push(LaneOp::MulScalar(*s)),
            AnalysisStep::MaskGreater(s) => chain.push(LaneOp::MaskGreater(*s)),
            AnalysisStep::MaskLess(s) => chain.push(LaneOp::MaskLess(*s)),
            AnalysisStep::Anomaly => {
                let t_idx = axis_index(&axes, AxisKind::Time)
                    .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{id}'")))?;
                // the time mean wants concrete lanes: flush pending ops
                // (one fused pass), then read the slab
                if !chain.is_empty() {
                    array = Cow::Owned(materialize(&array, &chain));
                    chain.clear();
                }
                let slab = reduce::mean_axis(&array, t_idx)?;
                let nt = array.shape().get(t_idx).copied().unwrap_or(1);
                let inner: usize =
                    array.shape().iter().skip(t_idx + 1).product::<usize>().max(1);
                chain.push(LaneOp::SubSlab { slab, nt, inner });
                id = format!("{id}_anom");
            }
            AnalysisStep::Standardize => {
                let field = ChainRows { base: &array, chain: &chain };
                let m = reduce::moments_of(array.len(), &field);
                let mean = m
                    .mean()
                    .ok_or_else(|| CdmsError::EmptySelection("all masked".into()))?
                    as f32;
                let std = m.std().unwrap_or(0.0) as f32;
                if std <= 0.0 {
                    return Err(CdmsError::Invalid("zero variance".into()));
                }
                chain.push(LaneOp::SubDiv { sub: mean, div: std });
                id = format!("{id}_std");
            }
            AnalysisStep::SpatialMean => {
                // latitude reduction streams through the chain; what's
                // left is small, so the longitude step runs materialized
                let lat_idx = axis_index(&axes, AxisKind::Latitude)
                    .ok_or_else(|| CdmsError::NotFound(format!("Latitude axis on '{id}'")))?;
                let weights = axes.remove(lat_idx).weights();
                let field = ChainRows { base: &array, chain: &chain };
                let zonal =
                    reduce::weighted_mean_axis_of(array.shape(), lat_idx, &weights, &field)?;
                chain.clear();
                if axes.is_empty() {
                    axes.push(cdms::Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
                }
                let mean = crate::averager::average_over(
                    &Variable::new(&id, zonal, axes)?,
                    AxisKind::Longitude,
                )?;
                (id, axes, array) = (mean.id, mean.axes, Cow::Owned(mean.array));
            }
        }
    }
    let array = if chain.is_empty() { array.into_owned() } else { materialize(&array, &chain) };
    Variable::new(&id, array, axes).map(|mut v| {
        v.attributes = var.attributes.clone();
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{averager, climatology, conditioned, ops, statistics};
    use cdms::synth::SynthesisSpec;

    fn bits(a: &MaskedArray) -> (Vec<u32>, Vec<bool>) {
        (a.data().iter().map(|v| v.to_bits()).collect(), a.mask().to_vec())
    }

    #[test]
    fn canonical_chain_matches_stepwise_bits() {
        let ds = SynthesisSpec::new(12, 3, 16, 32).build();
        let ta = ds.variable("ta").unwrap();
        let fused = run(
            ta,
            &[AnalysisStep::Anomaly, AnalysisStep::Standardize, AnalysisStep::SpatialMean],
        )
        .unwrap();
        let step = climatology::anomaly(ta).unwrap();
        let step = statistics::standardize(&step).unwrap();
        let step = averager::spatial_mean(&step).unwrap();
        assert_eq!(fused.shape(), step.shape());
        assert_eq!(bits(&fused.array), bits(&step.array));
    }

    #[test]
    fn elementwise_steps_match_stepwise_bits() {
        let ds = SynthesisSpec::new(4, 2, 8, 16).build();
        let tos = ds.variable("tos").unwrap(); // masked over land
        let fused = run(
            tos,
            &[
                AnalysisStep::AddScalar(-273.15),
                AnalysisStep::MaskLess(-5.0),
                AnalysisStep::MulScalar(1.8),
                AnalysisStep::AddScalar(32.0),
                AnalysisStep::MaskGreater(100.0),
            ],
        )
        .unwrap();
        let step = ops::add_scalar(tos, -273.15).unwrap();
        let step = conditioned::masked_less(&step, -5.0).unwrap();
        let step = ops::mul_scalar(&step, 1.8).unwrap();
        let step = ops::add_scalar(&step, 32.0).unwrap();
        let step = conditioned::masked_greater(&step, 100.0).unwrap();
        assert_eq!(bits(&fused.array), bits(&step.array));
    }

    #[test]
    fn scalar_then_anomaly_flushes_correctly() {
        let ds = SynthesisSpec::new(8, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let fused =
            run(ta, &[AnalysisStep::AddScalar(-273.15), AnalysisStep::Anomaly]).unwrap();
        let step = ops::add_scalar(ta, -273.15).unwrap();
        let step = climatology::anomaly(&step).unwrap();
        assert_eq!(bits(&fused.array), bits(&step.array));
    }

    #[test]
    fn spatial_mean_alone_matches_averager() {
        let ds = SynthesisSpec::new(3, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let fused = run(ta, &[AnalysisStep::SpatialMean]).unwrap();
        let step = averager::spatial_mean(ta).unwrap();
        assert_eq!(fused.shape(), step.shape());
        assert_eq!(bits(&fused.array), bits(&step.array));
    }

    #[test]
    fn pipeline_errors_propagate() {
        let ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let lf = ds.variable("sftlf").unwrap(); // no time axis
        assert!(run(lf, &[AnalysisStep::Anomaly]).is_err());
        // masking everything then standardizing reports the empty selection
        let all_masked = run(
            ds.variable("ta").unwrap(),
            &[AnalysisStep::MaskGreater(f32::NEG_INFINITY), AnalysisStep::Standardize],
        );
        assert!(all_masked.is_err());
    }
}
