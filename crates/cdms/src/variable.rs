//! Variables: named masked arrays bound to a domain of coordinate axes.
//!
//! A [`Variable`] is the CDMS "transient variable": data + axes + attributes.
//! It supports the coordinate-space subsetting CDMS exposes as
//! `var(latitude=(-20, 20), longitude=(0, 180))`, axis lookup by kind, and
//! time-slab extraction.

use crate::array::{MaskedArray, SliceSpec};
use crate::attr::{AttValue, Attributes};
use crate::axis::{Axis, AxisKind};
use crate::error::{CdmsError, Result};

/// A self-describing data variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Short identifier, e.g. `"ta"`.
    pub id: String,
    /// The data payload.
    pub array: MaskedArray,
    /// One axis per array dimension, in storage order.
    pub axes: Vec<Axis>,
    /// CF metadata.
    pub attributes: Attributes,
}

impl Variable {
    /// Creates a variable, checking that axes match the array shape.
    pub fn new(id: &str, array: MaskedArray, axes: Vec<Axis>) -> Result<Variable> {
        if axes.len() != array.rank() {
            return Err(CdmsError::Invalid(format!(
                "variable '{id}': {} axes for rank-{} array",
                axes.len(),
                array.rank()
            )));
        }
        for (i, ax) in axes.iter().enumerate() {
            if ax.len() != array.shape()[i] {
                return Err(CdmsError::ShapeMismatch {
                    expected: array.shape().to_vec(),
                    got: axes.iter().map(|a| a.len()).collect(),
                });
            }
        }
        Ok(Variable { id: id.to_string(), array, axes, attributes: Attributes::new() })
    }

    /// Builder-style attribute setter.
    pub(crate) fn with_attr(mut self, name: &str, value: impl Into<AttValue>) -> Variable {
        self.attributes.insert(name.to_string(), value.into());
        self
    }

    /// The variable's shape.
    pub fn shape(&self) -> &[usize] {
        self.array.shape()
    }

    /// The variable's rank.
    pub fn rank(&self) -> usize {
        self.array.rank()
    }

    /// The `units` attribute, if present.
    pub fn units(&self) -> Option<&str> {
        self.attributes.get("units").and_then(|a| a.as_text())
    }

    /// The `long_name` attribute, falling back to the id.
    pub fn long_name(&self) -> &str {
        self.attributes
            .get("long_name")
            .and_then(|a| a.as_text())
            .unwrap_or(&self.id)
    }

    /// Index of the first axis of the given kind.
    pub fn axis_index(&self, kind: AxisKind) -> Option<usize> {
        self.axes.iter().position(|a| a.kind == kind)
    }

    /// The first axis of the given kind.
    pub fn axis(&self, kind: AxisKind) -> Option<&Axis> {
        self.axis_index(kind).map(|i| &self.axes[i])
    }

    /// Subsets by index ranges, one [`SliceSpec`] per axis; axes follow.
    pub(crate) fn slice(&self, specs: &[SliceSpec]) -> Result<Variable> {
        let array = self.array.slice(specs)?;
        let mut axes = Vec::with_capacity(self.axes.len());
        for (ax, spec) in self.axes.iter().zip(specs) {
            let values: Vec<f64> = spec.indices().map(|i| ax.values[i]).collect();
            let mut sub = ax.clone();
            sub.values = values;
            sub.bounds = ax
                .bounds
                .as_ref()
                .map(|b| spec.indices().map(|i| b[i]).collect());
            axes.push(sub);
        }
        let mut v = Variable::new(&self.id, array, axes)?;
        v.attributes = self.attributes.clone();
        Ok(v)
    }

    /// Subsets an axis of the given kind by *coordinate* range (inclusive),
    /// the CDMS `var(latitude=(lo, hi))` call.
    pub fn subset_kind(&self, kind: AxisKind, lo: f64, hi: f64) -> Result<Variable> {
        let idx = self
            .axis_index(kind)
            .ok_or_else(|| CdmsError::NotFound(format!("{kind:?} axis on '{}'", self.id)))?;
        let (a, b) = self.axes[idx].index_range(lo, hi)?;
        let mut specs: Vec<SliceSpec> =
            self.shape().iter().map(|&n| SliceSpec::all(n)).collect();
        specs[idx] = SliceSpec::range(a, b);
        self.slice(&specs)
    }

    /// Convenience: subset latitude then longitude by coordinate ranges.
    pub fn subset_lat_lon(&self, lat: (f64, f64), lon: (f64, f64)) -> Result<Variable> {
        self.subset_kind(AxisKind::Latitude, lat.0, lat.1)?
            .subset_kind(AxisKind::Longitude, lon.0, lon.1)
    }

    /// Extracts the `t`-th time slab, dropping the time axis.
    pub fn time_slab(&self, t: usize) -> Result<Variable> {
        let idx = self
            .axis_index(AxisKind::Time)
            .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", self.id)))?;
        if t >= self.axes[idx].len() {
            return Err(CdmsError::AxisOutOfRange { axis: t, rank: self.axes[idx].len() });
        }
        let array = self.array.take(idx, t)?;
        let mut axes = self.axes.clone();
        axes.remove(idx);
        if axes.is_empty() {
            // take() leaves a rank-1, length-1 array
            axes.push(Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
        }
        let mut v = Variable::new(&self.id, array, axes)?;
        v.attributes = self.attributes.clone();
        Ok(v)
    }

    /// Reorders axes to the canonical `(time, level, lat, lon)` order
    /// (present kinds only, generic axes last), returning a new variable.
    pub fn to_canonical_order(&self) -> Result<Variable> {
        let order = |k: AxisKind| match k {
            AxisKind::Time => 0,
            AxisKind::Level => 1,
            AxisKind::Latitude => 2,
            AxisKind::Longitude => 3,
            AxisKind::Generic => 4,
        };
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.sort_by_key(|&i| (order(self.axes[i].kind), i));
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return Ok(self.clone());
        }
        let array = self.array.transpose(&perm)?;
        let axes = perm.iter().map(|&p| self.axes[p].clone()).collect();
        let mut v = Variable::new(&self.id, array, axes)?;
        v.attributes = self.attributes.clone();
        Ok(v)
    }

    /// Number of time steps (1 when there is no time axis).
    pub fn n_times(&self) -> usize {
        self.axis(AxisKind::Time).map(|a| a.len()).unwrap_or(1)
    }

    /// Extracts time steps `range` as a new variable, *keeping* the (now
    /// shorter) time axis — the unit of transfer for `.ncr` v3 chunking and
    /// [`crate::stream`] window reads, where [`Variable::time_slab`] is the
    /// per-frame cut.
    pub fn time_window(&self, range: std::ops::Range<usize>) -> Result<Variable> {
        let idx = self
            .axis_index(AxisKind::Time)
            .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", self.id)))?;
        let n = self.axes[idx].len();
        if range.start >= range.end || range.end > n {
            return Err(CdmsError::Invalid(format!(
                "time window {}..{} out of range for {} step(s) on '{}'",
                range.start, range.end, n, self.id
            )));
        }
        let mut specs: Vec<SliceSpec> =
            self.shape().iter().map(|&d| SliceSpec::all(d)).collect();
        specs[idx] = SliceSpec::range(range.start, range.end);
        self.slice(&specs)
    }
}

#[cfg(test)]
impl Variable {
    /// The axis with the given id.
    pub(crate) fn axis_by_id(&self, id: &str) -> Option<&Axis> {
        self.axes.iter().find(|a| a.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Calendar;

    fn sample() -> Variable {
        // (time=2, lat=3, lon=4)
        let time =
            Axis::time(vec![0.0, 1.0], "days since 2000-01-01", Calendar::NoLeap365).unwrap();
        let lat = Axis::latitude(vec![-30.0, 0.0, 30.0]).unwrap();
        let lon = Axis::longitude(vec![0.0, 90.0, 180.0, 270.0]).unwrap();
        let arr = MaskedArray::from_fn(&[2, 3, 4], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as f32);
        Variable::new("ta", arr, vec![time, lat, lon])
            .unwrap()
            .with_attr("units", "K")
            .with_attr("long_name", "air temperature")
    }

    #[test]
    fn construction_validates_axes() {
        let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
        let arr = MaskedArray::zeros(&[3]);
        assert!(Variable::new("x", arr.clone(), vec![lat.clone()]).is_err()); // length mismatch
        assert!(Variable::new("x", arr, vec![]).is_err()); // rank mismatch
    }

    #[test]
    fn metadata_accessors() {
        let v = sample();
        assert_eq!(v.units(), Some("K"));
        assert_eq!(v.long_name(), "air temperature");
        assert_eq!(v.axis(AxisKind::Latitude).unwrap().len(), 3);
        assert_eq!(v.axis_index(AxisKind::Time), Some(0));
        assert!(v.axis(AxisKind::Level).is_none());
        assert!(v.axis_by_id("lon").is_some());
        assert_eq!(v.n_times(), 2);
    }

    #[test]
    fn coordinate_subsetting() {
        let v = sample();
        let sub = v.subset_kind(AxisKind::Latitude, -10.0, 35.0).unwrap();
        assert_eq!(sub.shape(), &[2, 2, 4]);
        assert_eq!(sub.axes[1].values, vec![0.0, 30.0]);
        // data follows
        assert_eq!(sub.array.get(&[0, 0, 0]).unwrap(), 10.0);
        assert!(v.subset_kind(AxisKind::Latitude, 50.0, 60.0).is_err());
        assert!(v.subset_kind(AxisKind::Level, 0.0, 1.0).is_err());
    }

    #[test]
    fn subset_lat_lon_combined() {
        let v = sample();
        let sub = v.subset_lat_lon((-30.0, 0.0), (90.0, 180.0)).unwrap();
        assert_eq!(sub.shape(), &[2, 2, 2]);
        assert_eq!(sub.array.get(&[1, 1, 1]).unwrap(), 112.0);
        assert_eq!(sub.attributes, v.attributes);
    }

    #[test]
    fn time_slab_drops_time_axis() {
        let v = sample();
        let s = v.time_slab(1).unwrap();
        assert_eq!(s.shape(), &[3, 4]);
        assert_eq!(s.axes.len(), 2);
        assert_eq!(s.array.get(&[0, 0]).unwrap(), 100.0);
        assert!(v.time_slab(2).is_err());
    }

    #[test]
    fn time_window_keeps_time_axis() {
        let v = sample();
        let w = v.time_window(1..2).unwrap();
        assert_eq!(w.shape(), &[1, 3, 4]);
        assert_eq!(w.axes[0].kind, AxisKind::Time);
        assert_eq!(w.axes[0].values, vec![1.0]);
        assert_eq!(w.array.get(&[0, 0, 0]).unwrap(), 100.0);
        assert_eq!(v.time_window(0..2).unwrap().array, v.array);
        assert!(v.time_window(0..0).is_err());
        assert!(v.time_window(1..3).is_err());
    }

    #[test]
    fn canonical_reorder() {
        // Build (lon, time, lat) order and canonicalize.
        let v = sample();
        let perm_arr = v.array.transpose(&[2, 0, 1]).unwrap();
        let axes = vec![v.axes[2].clone(), v.axes[0].clone(), v.axes[1].clone()];
        let scrambled = Variable::new("ta", perm_arr, axes).unwrap();
        let canon = scrambled.to_canonical_order().unwrap();
        assert_eq!(canon.axes[0].kind, AxisKind::Time);
        assert_eq!(canon.axes[1].kind, AxisKind::Latitude);
        assert_eq!(canon.axes[2].kind, AxisKind::Longitude);
        assert_eq!(canon.array, v.array);
    }

    #[test]
    fn canonical_reorder_noop_when_ordered() {
        let v = sample();
        let c = v.to_canonical_order().unwrap();
        assert_eq!(c, v);
    }

    #[test]
    fn index_slicing_keeps_axes_in_sync() {
        let v = sample();
        let specs =
            [SliceSpec::all(2), SliceSpec::at(1), SliceSpec { start: 0, stop: 4, step: 2 }];
        let s = v.slice(&specs).unwrap();
        assert_eq!(s.shape(), &[2, 1, 2]);
        assert_eq!(s.axes[1].values, vec![0.0]);
        assert_eq!(s.axes[2].values, vec![0.0, 180.0]);
    }
}
