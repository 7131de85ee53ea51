//! Ensemble / multi-region batch workloads — the ROADMAP's
//! "hundreds of members × regions" shape, built from the pieces the rest
//! of the crate provides: batched regridding onto a common grid
//! ([`crate::regrid::regrid_batch`]), deterministic ensemble reductions
//! through [`crate::reduce`] (mean / percentile / extremes along a new
//! leading `member` axis), regional clipping, and per-region climatology
//! normals. [`build_graph`] wires a full workload into a [`TaskGraph`]
//! whose sources fan into one batched regrid node and fan back out into
//! per-region analysis — the DAG the dependency-counting executor is
//! benchmarked on (`benches/ensemble.rs`).
//!
//! A hot-path file that denies `clippy::indexing_slicing`: these drivers run under
//! every batch workload, so element access goes through `.get()`.

// Hot path: the ensemble drivers sit under every batch workload.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::regrid_plan::RegridMethod;
use crate::taskgraph::TaskGraph;
use crate::{averager, climatology, reduce};
use cdms::axis::{Axis, AxisKind};
use cdms::synth::SynthesisSpec;
use cdms::{CdmsError, RectGrid, Result, Variable};

/// A named rectangular analysis region (inclusive lat/lon bounds, degrees).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name, used to derive task names (`clip_<name>`, …).
    pub name: String,
    /// `(south, north)` latitude bounds.
    pub lat: (f64, f64),
    /// `(west, east)` longitude bounds.
    pub lon: (f64, f64),
}

impl Region {
    /// A named region from lat/lon bounds.
    pub fn new(name: &str, lat: (f64, f64), lon: (f64, f64)) -> Region {
        Region { name: name.to_string(), lat, lon }
    }
}

/// Synthesizes `count` ensemble members of the `ta` field: one
/// [`SynthesisSpec`] per member, seeded `base_seed + m`, so members share
/// axes but differ in data — the stand-in for N model realizations.
pub fn synth_members(
    count: usize,
    (t, lev, lat, lon): (usize, usize, usize, usize),
    base_seed: u64,
) -> Result<Vec<Variable>> {
    let mut members = Vec::with_capacity(count);
    for m in 0..count {
        let ds = SynthesisSpec::new(t, lev, lat, lon).seed(base_seed.wrapping_add(m as u64)).build();
        let var = ds
            .variable("ta")
            .ok_or_else(|| CdmsError::NotFound("synthesized 'ta'".into()))?;
        let mut var = var.clone();
        var.id = format!("ta_m{m}");
        members.push(var);
    }
    Ok(members)
}

/// Stacks equal-shape members along a new leading `member` axis
/// (`AxisKind::Generic`, coordinates `0..n`). Mask and data are carried
/// through unchanged; member order is the slice order.
pub(crate) fn stack(members: &[Variable]) -> Result<Variable> {
    let Some(first) = members.first() else {
        return Err(CdmsError::EmptySelection("no ensemble members to stack".into()));
    };
    let mut shape = vec![1usize];
    shape.extend_from_slice(first.shape());
    let mut parts = Vec::with_capacity(members.len());
    for var in members {
        if var.shape() != first.shape() {
            return Err(CdmsError::ShapeMismatch {
                expected: first.shape().to_vec(),
                got: var.shape().to_vec(),
            });
        }
        parts.push(var.array.reshape(&shape)?);
    }
    let part_refs: Vec<&cdms::MaskedArray> = parts.iter().collect();
    let array = cdms::MaskedArray::concat(&part_refs, 0)?;
    let member_axis = Axis::new(
        "member",
        (0..members.len()).map(|i| i as f64).collect(),
        "1",
        AxisKind::Generic,
    )?;
    let mut axes = Vec::with_capacity(first.axes.len() + 1);
    axes.push(member_axis);
    axes.extend(first.axes.iter().cloned());
    let mut v = Variable::new(&first.id, array, axes)?;
    v.attributes = first.attributes.clone();
    Ok(v)
}

/// Rebuilds a variable from a member-axis reduction of `stacked`: the
/// reduced array keeps every axis but the leading `member` one.
fn drop_member_axis(stacked: &Variable, array: cdms::MaskedArray, id: &str) -> Result<Variable> {
    let axes = stacked.axes.get(1..).unwrap_or_default().to_vec();
    let mut v = Variable::new(id, array, axes)?;
    v.attributes = stacked.attributes.clone();
    Ok(v)
}

/// Ensemble mean across the leading `member` axis, through the
/// deterministic [`reduce::mean_axis`] kernel (bit-identical to the eager
/// reduction, invariant under thread count).
pub(crate) fn mean(stacked: &Variable) -> Result<Variable> {
    let arr = reduce::mean_axis(&stacked.array, 0)?;
    drop_member_axis(stacked, arr, &format!("{}_ensmean", stacked.id))
}

/// The `q`-th ensemble percentile (0–100) across the `member` axis
/// ([`reduce::percentile_axis`]: `total_cmp` sort + linear interpolation,
/// deterministic).
pub(crate) fn percentile(stacked: &Variable, q: f64) -> Result<Variable> {
    let arr = reduce::percentile_axis(&stacked.array, 0, q)?;
    drop_member_axis(stacked, arr, &format!("{}_p{q:.0}", stacked.id))
}

/// Ensemble envelope: `(min, max)` across the `member` axis.
pub(crate) fn extremes(stacked: &Variable) -> Result<(Variable, Variable)> {
    let lo = drop_member_axis(stacked, reduce::min_axis(&stacked.array, 0)?, &format!("{}_min", stacked.id))?;
    let hi = drop_member_axis(stacked, reduce::max_axis(&stacked.array, 0)?, &format!("{}_max", stacked.id))?;
    Ok((lo, hi))
}

/// Clips a variable to a region's lat/lon box.
pub(crate) fn clip_region(var: &Variable, region: &Region) -> Result<Variable> {
    var.subset_lat_lon(region.lat, region.lon)
}

/// Wires a full ensemble workload into a [`TaskGraph`]:
///
/// ```text
/// m0 … mN ──► ens (batched regrid + stack)
///               ├─► ens_mean ──► per region: clip_R ─► normals_R
///               │                                   └► series_R
///               ├─► ens_p10 / ens_p50 / ens_p90
///               ├─► ens_lo
///               └─► ens_hi
/// ```
///
/// N member sources fan into one batched-regrid node (one plan-cache
/// consult, then one apply per member), which fans back out into the
/// ensemble reductions and per-region chains — wide where members and
/// regions are independent, so the event-driven executor can overlap
/// everything but the regrid barrier itself.
pub fn build_graph(
    members: Vec<Variable>,
    target: RectGrid,
    method: RegridMethod,
    regions: &[Region],
) -> Result<TaskGraph> {
    let mut g = TaskGraph::new();
    let mut names = Vec::with_capacity(members.len());
    for (m, var) in members.into_iter().enumerate() {
        let name = format!("m{m}");
        g.add_source(&name, var)?;
        names.push(name);
    }
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    g.add_regrid_batch_task("ens", &name_refs, target, method)?;

    fn dep<'a>(
        deps: &'a std::collections::BTreeMap<String, std::sync::Arc<Variable>>,
        name: &str,
    ) -> Result<&'a Variable> {
        deps.get(name)
            .map(std::sync::Arc::as_ref)
            .ok_or_else(|| CdmsError::NotFound(format!("dependency '{name}'")))
    }

    g.add_task("ens_mean", &["ens"], move |deps| mean(dep(deps, "ens")?))?;
    g.add_task("ens_p10", &["ens"], move |deps| percentile(dep(deps, "ens")?, 10.0))?;
    g.add_task("ens_p50", &["ens"], move |deps| percentile(dep(deps, "ens")?, 50.0))?;
    g.add_task("ens_p90", &["ens"], move |deps| percentile(dep(deps, "ens")?, 90.0))?;
    g.add_task("ens_lo", &["ens"], move |deps| Ok(extremes(dep(deps, "ens")?)?.0))?;
    g.add_task("ens_hi", &["ens"], move |deps| Ok(extremes(dep(deps, "ens")?)?.1))?;

    for region in regions {
        let clip_name = format!("clip_{}", region.name);
        let r = region.clone();
        g.add_task(&clip_name, &["ens_mean"], move |deps| {
            clip_region(dep(deps, "ens_mean")?, &r)
        })?;
        let dep_name = clip_name.clone();
        g.add_task(&format!("normals_{}", region.name), &[clip_name.as_str()], move |deps| {
            climatology::monthly_climatology(dep(deps, &dep_name)?)
        })?;
        let dep_name = clip_name.clone();
        g.add_task(&format!("series_{}", region.name), &[clip_name.as_str()], move |deps| {
            averager::spatial_mean(dep(deps, &dep_name)?)
        })?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regrid;

    fn members() -> Vec<Variable> {
        synth_members(4, (12, 2, 12, 24), 42).unwrap()
    }

    #[test]
    fn stack_prepends_member_axis() {
        let ms = members();
        let s = stack(&ms).unwrap();
        assert_eq!(s.shape(), &[4, 12, 2, 12, 24]);
        assert_eq!(s.axes[0].id, "member");
        assert_eq!(s.axes[0].kind, AxisKind::Generic);
        // member 2's data is carried through verbatim
        let plane = 12 * 2 * 12 * 24;
        assert_eq!(
            s.array.data().get(2 * plane..3 * plane),
            Some(ms[2].array.data())
        );
        assert!(stack(&[]).is_err());
    }

    #[test]
    fn stack_rejects_shape_mismatch() {
        let mut ms = members();
        ms.push(synth_members(1, (6, 2, 12, 24), 7).unwrap().remove(0));
        assert!(stack(&ms).is_err());
    }

    #[test]
    fn ensemble_reductions_reduce_member_axis() {
        let ms = members();
        let s = stack(&ms).unwrap();
        let m = mean(&s).unwrap();
        assert_eq!(m.shape(), &[12, 2, 12, 24]);
        let p = percentile(&s, 90.0).unwrap();
        assert_eq!(p.shape(), m.shape());
        let (lo, hi) = extremes(&s).unwrap();
        // envelope brackets the mean everywhere valid
        for ((&l, &h), &v) in lo.array.data().iter().zip(hi.array.data()).zip(m.array.data()) {
            assert!(l <= v + 1e-3 && v <= h + 1e-3, "{l} <= {v} <= {h}");
        }
    }

    #[test]
    fn graph_matches_direct_computation() {
        let ms = members();
        let target = RectGrid::uniform(8, 16).unwrap();
        let regions =
            [Region::new("tropics", (-20.0, 20.0), (0.0, 360.0))];
        let g = build_graph(ms.clone(), target.clone(), RegridMethod::Bilinear, &regions).unwrap();
        let report = g.run_serial().unwrap();

        // direct: per-member regrid, stack, reduce, clip, normals
        let regridded: Vec<Variable> =
            ms.iter().map(|v| regrid::regrid(v, &target, RegridMethod::Bilinear).unwrap()).collect();
        let s = stack(&regridded).unwrap();
        assert_eq!(report.outputs["ens"].array, s.array);
        let want_mean = mean(&s).unwrap();
        assert_eq!(report.outputs["ens_mean"].array, want_mean.array);
        assert_eq!(report.outputs["ens_p90"].array, percentile(&s, 90.0).unwrap().array);
        let clip = clip_region(&want_mean, &regions[0]).unwrap();
        assert_eq!(report.outputs["clip_tropics"].array, clip.array);
        assert_eq!(
            report.outputs["normals_tropics"].array,
            climatology::monthly_climatology(&clip).unwrap().array
        );
        assert_eq!(
            report.outputs["series_tropics"].array,
            averager::spatial_mean(&clip).unwrap().array
        );
    }

    #[test]
    fn graph_parallel_matches_serial_bitwise() {
        let ms = members();
        let target = RectGrid::uniform(8, 16).unwrap();
        let regions = [
            Region::new("tropics", (-20.0, 20.0), (0.0, 360.0)),
            Region::new("north", (30.0, 80.0), (0.0, 360.0)),
        ];
        let g = build_graph(ms, target, RegridMethod::Conservative, &regions).unwrap();
        let s = g.run_serial().unwrap();
        for pool in [1, 2, 8] {
            let p = g.run_with_pool(pool).unwrap();
            assert_eq!(s.outputs.len(), p.outputs.len(), "pool {pool}");
            for (name, want) in &s.outputs {
                let got = p.outputs.get(name).unwrap_or_else(|| panic!("missing {name}"));
                assert_eq!(want.array, got.array, "task {name}, pool {pool}");
            }
        }
    }
}
