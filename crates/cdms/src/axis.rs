//! CF-convention coordinate axes.
//!
//! An [`Axis`] carries coordinate values, optional cell bounds, units and a
//! kind (latitude/longitude/level/time/generic). Axes answer the questions
//! subsetting and regridding need: nearest index, coordinate-range selection,
//! cell widths and area weights.

use crate::attr::Attributes;
use crate::calendar::{Calendar, RelTime};
use crate::error::{CdmsError, Result};
use serde::{Deserialize, Serialize};

/// The physical kind of an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxisKind {
    Latitude,
    Longitude,
    /// Vertical level (pressure, height, model level…).
    Level,
    Time,
    Generic,
}

impl AxisKind {
    /// Guesses the kind from a CF-ish axis id/units, as CDMS does.
    pub(crate) fn infer(id: &str, units: &str) -> AxisKind {
        let id = id.to_ascii_lowercase();
        let units = units.to_ascii_lowercase();
        if id.starts_with("lat") || units.contains("degrees_north") {
            AxisKind::Latitude
        } else if id.starts_with("lon") || units.contains("degrees_east") {
            AxisKind::Longitude
        } else if id.starts_with("time") || units.contains(" since ") {
            AxisKind::Time
        } else if id.starts_with("lev")
            || id.starts_with("plev")
            || id.starts_with("depth")
            || id.starts_with("height")
            || units == "hpa"
            || units == "pa"
            || units == "mb"
        {
            AxisKind::Level
        } else {
            AxisKind::Generic
        }
    }
}

/// A one-dimensional coordinate axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// Short identifier, e.g. `"lat"`.
    pub id: String,
    /// Coordinate values, strictly monotonic.
    pub values: Vec<f64>,
    /// Cell bounds: `bounds[i] = (lower, upper)` of cell `i`.
    pub bounds: Option<Vec<(f64, f64)>>,
    /// CF units string (e.g. `"degrees_north"`, `"hPa"`, `"days since …"`).
    pub units: String,
    /// Physical kind.
    pub kind: AxisKind,
    /// Calendar, meaningful for time axes.
    pub calendar: Calendar,
    /// Extra metadata.
    pub attributes: Attributes,
}

impl Axis {
    /// Creates an axis, validating monotonicity.
    pub fn new(id: &str, values: Vec<f64>, units: &str, kind: AxisKind) -> Result<Axis> {
        if values.is_empty() {
            return Err(CdmsError::Invalid(format!("axis '{id}' has no values")));
        }
        let ax = Axis {
            id: id.to_string(),
            values,
            bounds: None,
            units: units.to_string(),
            kind,
            calendar: Calendar::default(),
            attributes: Attributes::new(),
        };
        if ax.len() > 1 && ax.direction() == 0 {
            return Err(CdmsError::Invalid(format!("axis '{id}' is not strictly monotonic")));
        }
        Ok(ax)
    }

    /// A zero-length axis — the in-memory image of a NetCDF "unlimited"
    /// dimension with no records yet. [`Axis::new`] rejects empty value
    /// lists so analysis code never builds one by accident; `.ncr` files
    /// may legitimately contain them, so the format decoder (and the
    /// edge-case round-trip tests) construct them through here.
    pub fn empty(id: &str, units: &str, kind: AxisKind) -> Axis {
        Axis {
            id: id.to_string(),
            values: Vec::new(),
            bounds: None,
            units: units.to_string(),
            kind,
            calendar: Calendar::default(),
            attributes: Attributes::new(),
        }
    }

    /// A latitude axis in degrees north.
    pub fn latitude(values: Vec<f64>) -> Result<Axis> {
        Axis::new("lat", values, "degrees_north", AxisKind::Latitude)
    }

    /// A longitude axis in degrees east.
    pub fn longitude(values: Vec<f64>) -> Result<Axis> {
        Axis::new("lon", values, "degrees_east", AxisKind::Longitude)
    }

    /// A pressure-level axis in hPa.
    pub fn pressure_levels(values: Vec<f64>) -> Result<Axis> {
        Axis::new("plev", values, "hPa", AxisKind::Level)
    }

    /// A time axis with relative units and a calendar.
    pub fn time(values: Vec<f64>, units: &str, calendar: Calendar) -> Result<Axis> {
        RelTime::parse(units)?; // validate early
        let mut ax = Axis::new("time", values, units, AxisKind::Time)?;
        ax.calendar = calendar;
        Ok(ax)
    }

    /// `n` evenly spaced values covering `[start, stop]` inclusive.
    pub fn linspace(id: &str, start: f64, stop: f64, n: usize, units: &str) -> Result<Axis> {
        if n == 0 {
            return Err(CdmsError::Invalid("linspace of zero points".into()));
        }
        let values = if n == 1 {
            vec![start]
        } else {
            (0..n).map(|i| start + (stop - start) * i as f64 / (n - 1) as f64).collect()
        };
        Axis::new(id, values, units, AxisKind::infer(id, units))
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no points (constructible via [`Axis::empty`],
    /// never via [`Axis::new`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// +1 for increasing, -1 for decreasing, 0 for non-monotonic.
    pub fn direction(&self) -> i8 {
        if self.values.windows(2).all(|w| w[1] > w[0]) {
            1
        } else if self.values.windows(2).all(|w| w[1] < w[0]) {
            -1
        } else {
            0
        }
    }

    /// First and last coordinate values. (`Axis::new` rejects empty value
    /// lists, so the NaN fallback is unreachable through the public API.)
    pub fn range(&self) -> (f64, f64) {
        (
            self.values.first().copied().unwrap_or(f64::NAN),
            self.values.last().copied().unwrap_or(f64::NAN),
        )
    }

    /// True for a longitude axis spanning the full circle (cells wrap).
    pub fn is_circular(&self) -> bool {
        if self.kind != AxisKind::Longitude || self.len() < 2 {
            return false;
        }
        let span = (self.values[self.len() - 1] - self.values[0]).abs();
        let step = span / (self.len() - 1) as f64;
        (span + step - 360.0).abs() < step * 0.51
    }

    /// Generates midpoint bounds if absent (half-way between neighbours,
    /// extrapolated at the ends). Latitude bounds are clamped to ±90.
    pub(crate) fn gen_bounds(&mut self) {
        if self.bounds.is_some() {
            return;
        }
        let n = self.len();
        let v = &self.values;
        let mut bounds = Vec::with_capacity(n);
        for i in 0..n {
            let lower = if i == 0 {
                if n > 1 {
                    v[0] - (v[1] - v[0]) / 2.0
                } else {
                    v[0] - 0.5
                }
            } else {
                (v[i - 1] + v[i]) / 2.0
            };
            let upper = if i + 1 == n {
                if n > 1 {
                    v[n - 1] + (v[n - 1] - v[n - 2]) / 2.0
                } else {
                    v[0] + 0.5
                }
            } else {
                (v[i] + v[i + 1]) / 2.0
            };
            let (mut lo, mut hi) = (lower, upper);
            if self.kind == AxisKind::Latitude {
                lo = lo.clamp(-90.0, 90.0);
                hi = hi.clamp(-90.0, 90.0);
            }
            bounds.push((lo, hi));
        }
        self.bounds = Some(bounds);
    }

    /// The bounds, generating midpoint cells first when absent. The empty
    /// fallback is unreachable (`gen_bounds` always fills `bounds`), but
    /// spelling it out keeps this path panic-free.
    pub fn bounds_or_gen(&mut self) -> Vec<(f64, f64)> {
        self.gen_bounds();
        self.bounds.clone().unwrap_or_default()
    }

    /// Cell widths from bounds (generating bounds if needed).
    pub(crate) fn cell_widths(&self) -> Vec<f64> {
        let mut ax = self.clone();
        ax.bounds_or_gen().iter().map(|(lo, hi)| (hi - lo).abs()).collect()
    }

    /// Area weights for averaging along this axis: proportional to
    /// `sin(upper) - sin(lower)` for latitude (exact sphere-area weighting),
    /// cell width otherwise.
    pub fn weights(&self) -> Vec<f64> {
        if self.kind == AxisKind::Latitude {
            let mut ax = self.clone();
            ax.bounds_or_gen()
                .iter()
                .map(|(lo, hi)| {
                    (hi.to_radians().sin() - lo.to_radians().sin()).abs()
                })
                .collect()
        } else {
            self.cell_widths()
        }
    }

    /// Indices whose coordinates fall in `[lo, hi]` (either order accepted).
    /// Returns `(first, last_exclusive)` over the axis's storage order.
    pub fn index_range(&self, lo: f64, hi: f64) -> Result<(usize, usize)> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut first = None;
        let mut last = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v >= lo - 1e-9 && v <= hi + 1e-9 {
                if first.is_none() {
                    first = Some(i);
                }
                last = Some(i);
            }
        }
        match (first, last) {
            (Some(f), Some(l)) => Ok((f, l + 1)),
            _ => Err(CdmsError::EmptySelection(format!(
                "axis '{}' has no points in [{lo}, {hi}]",
                self.id
            ))),
        }
    }

    /// Subsets the axis to indices `[start, stop)`.
    pub(crate) fn subset(&self, start: usize, stop: usize) -> Result<Axis> {
        if stop > self.len() || start >= stop {
            return Err(CdmsError::Invalid(format!(
                "bad subset {start}..{stop} on axis '{}' (len {})",
                self.id,
                self.len()
            )));
        }
        let mut ax = self.clone();
        ax.values = self.values[start..stop].to_vec();
        ax.bounds = self.bounds.as_ref().map(|b| b[start..stop].to_vec());
        Ok(ax)
    }

    /// Fractional index of coordinate `x` for interpolation: returns
    /// `(i, frac)` such that `x ≈ values[i] * (1-frac) + values[i+1] * frac`.
    /// Clamps outside the axis range.
    pub fn fractional_index(&self, x: f64) -> (usize, f64) {
        let n = self.len();
        if n == 1 {
            return (0, 0.0);
        }
        let inc = self.direction() >= 0;
        // Binary search over monotonic values.
        let (mut lo, mut hi) = (0usize, n - 1);
        let before = |v: f64| if inc { v <= x } else { v >= x };
        if !before(self.values[0]) {
            return (0, 0.0);
        }
        if before(self.values[n - 1]) {
            return (n - 2, 1.0);
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if before(self.values[mid]) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let span = self.values[hi] - self.values[lo];
        let frac = if span.abs() < 1e-300 { 0.0 } else { (x - self.values[lo]) / span };
        (lo, frac.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
impl Axis {
    /// Decodes the time value at `i` to a component time. Errors for
    /// non-time axes.
    pub(crate) fn time_at(&self, i: usize) -> Result<crate::calendar::CompTime> {
        if self.kind != AxisKind::Time {
            return Err(CdmsError::Time(format!("axis '{}' is not a time axis", self.id)));
        }
        let rel = RelTime::parse(&self.units)?;
        Ok(rel.decode(self.values[i], self.calendar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_inferred() {
        assert_eq!(AxisKind::infer("lat", "degrees_north"), AxisKind::Latitude);
        assert_eq!(AxisKind::infer("longitude", ""), AxisKind::Longitude);
        assert_eq!(AxisKind::infer("t", "days since 2000-1-1"), AxisKind::Time);
        assert_eq!(AxisKind::infer("plev", "hPa"), AxisKind::Level);
        assert_eq!(AxisKind::infer("x", "m"), AxisKind::Generic);
    }

    #[test]
    fn monotonicity_enforced() {
        assert!(Axis::latitude(vec![0.0, 1.0, 0.5]).is_err());
        assert!(Axis::latitude(vec![0.0, 1.0, 2.0]).is_ok());
        assert!(Axis::latitude(vec![2.0, 1.0, 0.0]).is_ok());
        assert!(Axis::latitude(vec![]).is_err());
    }

    #[test]
    fn direction_and_range() {
        let up = Axis::latitude(vec![-30.0, 0.0, 30.0]).unwrap();
        assert_eq!(up.direction(), 1);
        assert_eq!(up.range(), (-30.0, 30.0));
        let down = Axis::pressure_levels(vec![1000.0, 500.0, 100.0]).unwrap();
        assert_eq!(down.direction(), -1);
    }

    #[test]
    fn linspace_endpoints() {
        let ax = Axis::linspace("lon", 0.0, 350.0, 36, "degrees_east").unwrap();
        assert_eq!(ax.len(), 36);
        assert_eq!(ax.values[0], 0.0);
        assert_eq!(ax.values[35], 350.0);
        assert_eq!(ax.kind, AxisKind::Longitude);
        assert!(Axis::linspace("x", 0.0, 1.0, 0, "m").is_err());
    }

    #[test]
    fn circular_longitude_detection() {
        let full = Axis::linspace("lon", 0.0, 350.0, 36, "degrees_east").unwrap();
        assert!(full.is_circular());
        let partial = Axis::linspace("lon", 0.0, 180.0, 19, "degrees_east").unwrap();
        assert!(!partial.is_circular());
        let lat = Axis::linspace("lat", -90.0, 90.0, 19, "degrees_north").unwrap();
        assert!(!lat.is_circular());
    }

    #[test]
    fn bounds_midpoints_and_clamping() {
        let mut ax = Axis::latitude(vec![-90.0, 0.0, 90.0]).unwrap();
        ax.gen_bounds();
        let b = ax.bounds.as_ref().unwrap();
        assert_eq!(b[0], (-90.0, -45.0)); // clamped at the pole
        assert_eq!(b[1], (-45.0, 45.0));
        assert_eq!(b[2], (45.0, 90.0));
    }

    #[test]
    fn latitude_weights_sum_to_two() {
        // sin-latitude weights over the full sphere sum to 2 (= ∫cosφ dφ).
        let ax = Axis::linspace("lat", -87.5, 87.5, 36, "degrees_north").unwrap();
        let w: f64 = ax.weights().iter().sum();
        assert!((w - 2.0).abs() < 1e-6, "sum {w}");
    }

    #[test]
    fn generic_weights_are_cell_widths() {
        let ax = Axis::linspace("x", 0.0, 10.0, 11, "m").unwrap();
        let w = ax.weights();
        assert!(w.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn index_range_selects_inclusive() {
        let ax = Axis::linspace("lat", -90.0, 90.0, 19, "degrees_north").unwrap();
        let (a, b) = ax.index_range(-20.0, 20.0).unwrap();
        assert_eq!((a, b), (7, 12));
        let (a, b) = ax.index_range(20.0, -20.0).unwrap(); // swapped ok
        assert_eq!((a, b), (7, 12));
        assert!(ax.index_range(91.0, 95.0).is_err());
    }

    #[test]
    fn subset_values_and_bounds() {
        let mut ax = Axis::linspace("lat", -90.0, 90.0, 19, "degrees_north").unwrap();
        ax.gen_bounds();
        let sub = ax.subset(7, 12).unwrap();
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.values[0], -20.0);
        assert!(sub.bounds.is_some());
        assert!(ax.subset(12, 7).is_err());
        assert!(ax.subset(0, 100).is_err());
    }

    #[test]
    fn time_axis_decodes() {
        let ax =
            Axis::time(vec![0.0, 31.0], "days since 2000-01-01", Calendar::NoLeap365).unwrap();
        let t = ax.time_at(1).unwrap();
        assert_eq!((t.year, t.month, t.day), (2000, 2, 1));
        let lat = Axis::latitude(vec![0.0]).unwrap();
        assert!(lat.time_at(0).is_err());
        assert!(Axis::time(vec![0.0], "bogus units", Calendar::Gregorian).is_err());
    }

    #[test]
    fn fractional_index_interpolates() {
        let ax = Axis::linspace("x", 0.0, 10.0, 11, "m").unwrap();
        let (i, f) = ax.fractional_index(3.5);
        assert_eq!(i, 3);
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(ax.fractional_index(-5.0), (0, 0.0));
        let (i, f) = ax.fractional_index(20.0);
        assert_eq!((i, f), (9, 1.0));
    }

    #[test]
    fn fractional_index_decreasing_axis() {
        let ax = Axis::pressure_levels(vec![1000.0, 500.0, 100.0]).unwrap();
        let (i, f) = ax.fractional_index(750.0);
        assert_eq!(i, 0);
        assert!((f - 0.5).abs() < 1e-12);
    }
}
