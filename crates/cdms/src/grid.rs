//! Horizontal grids: rectilinear latitude–longitude grids, uniform and
//! gaussian, with cell areas — the geometry regridding and area-weighted
//! averaging operate on.

use crate::axis::{Axis, AxisKind};
use crate::error::{CdmsError, Result};
use serde::{Deserialize, Serialize};

/// A rectilinear latitude–longitude grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RectGrid {
    pub lat: Axis,
    pub lon: Axis,
}

impl RectGrid {
    /// Builds a grid from latitude and longitude axes.
    pub fn new(lat: Axis, lon: Axis) -> Result<RectGrid> {
        if lat.kind != AxisKind::Latitude {
            return Err(CdmsError::Invalid(format!("'{}' is not a latitude axis", lat.id)));
        }
        if lon.kind != AxisKind::Longitude {
            return Err(CdmsError::Invalid(format!("'{}' is not a longitude axis", lon.id)));
        }
        let mut lat = lat;
        let mut lon = lon;
        lat.gen_bounds();
        lon.gen_bounds();
        Ok(RectGrid { lat, lon })
    }

    /// A uniform grid with `nlat` latitudes (cell centres, pole-inset) and
    /// `nlon` longitudes starting at 0°E.
    pub fn uniform(nlat: usize, nlon: usize) -> Result<RectGrid> {
        if nlat == 0 || nlon == 0 {
            return Err(CdmsError::Invalid("empty grid".into()));
        }
        let dlat = 180.0 / nlat as f64;
        let lat_vals: Vec<f64> =
            (0..nlat).map(|i| -90.0 + dlat / 2.0 + dlat * i as f64).collect();
        let dlon = 360.0 / nlon as f64;
        let lon_vals: Vec<f64> = (0..nlon).map(|i| dlon * i as f64).collect();
        RectGrid::new(Axis::latitude(lat_vals)?, Axis::longitude(lon_vals)?)
    }

    /// A gaussian grid with `nlat` gaussian latitudes and `nlon` longitudes.
    ///
    /// Gaussian latitudes are the arcsines of the roots of the Legendre
    /// polynomial P_nlat, found by Newton iteration — the grid spectral
    /// models output on.
    pub fn gaussian(nlat: usize, nlon: usize) -> Result<RectGrid> {
        if nlat == 0 || nlon == 0 {
            return Err(CdmsError::Invalid("empty grid".into()));
        }
        let (nodes, _) = gauss_legendre(nlat);
        // nodes are sin(lat) in (-1, 1), ascending
        let lat_vals: Vec<f64> = nodes.iter().map(|&x| x.asin().to_degrees()).collect();
        let dlon = 360.0 / nlon as f64;
        let lon_vals: Vec<f64> = (0..nlon).map(|i| dlon * i as f64).collect();
        RectGrid::new(Axis::latitude(lat_vals)?, Axis::longitude(lon_vals)?)
    }

    /// `(nlat, nlon)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.lat.len(), self.lon.len())
    }

    /// Cell areas on the unit sphere, row-major `(lat, lon)`, in steradians.
    pub fn cell_areas(&self) -> Vec<f64> {
        let mut lat = self.lat.clone();
        let latb = lat.bounds_or_gen();
        let lonw = self.lon.cell_widths();
        let mut areas = Vec::with_capacity(self.lat.len() * self.lon.len());
        for (lo, hi) in latb {
            let band = (hi.to_radians().sin() - lo.to_radians().sin()).abs();
            for w in &lonw {
                areas.push(band * w.to_radians());
            }
        }
        areas
    }

    /// Stable 64-bit fingerprint of the grid geometry. Equal fingerprints
    /// mean the grids produce identical regrid weights: the hash covers
    /// axis kind, length, the exact `f64` bit patterns of the centre values
    /// and — because conservative overlaps depend on them — the cell bounds
    /// when present. Regrid plan caches key on this.
    pub fn fingerprint(&self) -> u64 {
        axes_fingerprint(&self.lat, &self.lon)
    }
}

/// Fingerprint of an arbitrary (lat, lon) axis pair — the source-grid side
/// of [`RectGrid::fingerprint`], usable directly on a variable's axes
/// without constructing a grid. Each axis stream is prefixed with its kind
/// and length so values cannot slide between the latitude and longitude
/// arrays (or between values and bounds) without changing the hash.
pub fn axes_fingerprint(lat: &Axis, lon: &Axis) -> u64 {
    let mut h = Fnv::new();
    hash_axis(&mut h, lat);
    hash_axis(&mut h, lon);
    h.finish()
}

/// FNV-1a over little-endian u64 words; tiny, dependency-free and stable
/// across runs (unlike `DefaultHasher`, whose keys are randomized).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_axis(h: &mut Fnv, a: &Axis) {
    h.word(a.kind as u64);
    h.word(a.values.len() as u64);
    for v in &a.values {
        h.word(v.to_bits());
    }
    match &a.bounds {
        None => h.word(0),
        Some(b) => {
            h.word(1 + b.len() as u64);
            for (lo, hi) in b {
                h.word(lo.to_bits());
                h.word(hi.to_bits());
            }
        }
    }
}

/// Nodes and weights of `n`-point Gauss–Legendre quadrature on `[-1, 1]`,
/// nodes ascending. Newton iteration on the Legendre polynomial.
pub(crate) fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Abramowitz & Stegun 22.16.6).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        loop {
            // Evaluate P_n(x) and P'_n(x) by recurrence.
            let (mut p0, mut p1) = (1.0f64, x);
            for k in 2..=n {
                let p2 = ((2 * k - 1) as f64 * x * p1 - (k - 1) as f64 * p0) / k as f64;
                p0 = p1;
                p1 = p2;
            }
            let dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / dp;
            x -= dx;
            if dx.abs() < 1e-14 {
                let (mut q0, mut q1) = (1.0f64, x);
                for k in 2..=n {
                    let q2 = ((2 * k - 1) as f64 * x * q1 - (k - 1) as f64 * q0) / k as f64;
                    q0 = q1;
                    q1 = q2;
                }
                let dpn = n as f64 * (x * q1 - q0) / (x * x - 1.0);
                nodes[n - 1 - i] = x;
                nodes[i] = -x;
                let w = 2.0 / ((1.0 - x * x) * dpn * dpn);
                weights[i] = w;
                weights[n - 1 - i] = w;
                break;
            }
        }
    }
    if n % 2 == 1 {
        // Middle node is exactly zero.
        let x = 0.0f64;
        let (mut p0, mut p1) = (1.0f64, x);
        for k in 2..=n {
            let p2 = ((2 * k - 1) as f64 * x * p1 - (k - 1) as f64 * p0) / k as f64;
            p0 = p1;
            p1 = p2;
        }
        let dp = n as f64 * p0; // limit of the derivative formula at x=0
        nodes[n / 2] = 0.0;
        weights[n / 2] = 2.0 / (dp * dp);
    }
    (nodes, weights)
}

#[cfg(test)]
impl RectGrid {
    /// Total area of all cells (≈ 4π for a global grid).
    pub(crate) fn total_area(&self) -> f64 {
        self.cell_areas().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_geometry() {
        let g = RectGrid::uniform(4, 8).unwrap();
        assert_eq!(g.shape(), (4, 8));
        assert_eq!(g.lat.values[0], -67.5);
        assert_eq!(g.lon.values[1], 45.0);
        assert!(g.lon.is_circular());
    }

    #[test]
    fn uniform_grid_area_is_sphere() {
        for (nlat, nlon) in [(4, 8), (16, 32), (45, 90)] {
            let g = RectGrid::uniform(nlat, nlon).unwrap();
            let total = g.total_area();
            let sphere = 4.0 * std::f64::consts::PI;
            assert!((total - sphere).abs() / sphere < 1e-9, "{nlat}x{nlon}: {total}");
        }
    }

    #[test]
    fn gauss_legendre_small_orders() {
        // n=2: nodes ±1/sqrt(3), weights 1.
        let (x, w) = gauss_legendre(2);
        assert!((x[0] + 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert!((x[1] - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert!((w[0] - 1.0).abs() < 1e-12);
        // n=3: nodes 0, ±sqrt(3/5); weights 8/9, 5/9.
        let (x, w) = gauss_legendre(3);
        assert!(x[1].abs() < 1e-12);
        assert!((x[2] - (0.6f64).sqrt()).abs() < 1e-12);
        assert!((w[1] - 8.0 / 9.0).abs() < 1e-12);
        assert!((w[0] - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_weights_sum_to_two() {
        for n in [2, 5, 16, 33, 64] {
            let (x, w) = gauss_legendre(n);
            let sum: f64 = w.iter().sum();
            assert!((sum - 2.0).abs() < 1e-10, "n={n} sum={sum}");
            // nodes ascending and within (-1, 1)
            assert!(x.windows(2).all(|p| p[1] > p[0]));
            assert!(x.iter().all(|&v| v > -1.0 && v < 1.0));
        }
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // n-point rule is exact for degree 2n-1: check ∫x^4 over [-1,1] = 2/5 with n=3.
        let (x, w) = gauss_legendre(3);
        let integral: f64 = x.iter().zip(&w).map(|(xi, wi)| wi * xi.powi(4)).sum();
        assert!((integral - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gaussian_grid_reasonable() {
        let g = RectGrid::gaussian(32, 64).unwrap();
        assert_eq!(g.shape(), (32, 64));
        // Gaussian latitudes are symmetric and inside the poles.
        let v = &g.lat.values;
        assert!(v[0] > -90.0 && v[31] < 90.0);
        assert!((v[0] + v[31]).abs() < 1e-9);
        let total = g.total_area();
        let sphere = 4.0 * std::f64::consts::PI;
        assert!((total - sphere).abs() / sphere < 1e-3);
    }

    #[test]
    fn grid_kind_validation() {
        let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
        let lon = Axis::longitude(vec![0.0, 10.0]).unwrap();
        assert!(RectGrid::new(lon.clone(), lon.clone()).is_err());
        assert!(RectGrid::new(lat.clone(), lat.clone()).is_err());
        assert!(RectGrid::new(lat, lon).is_ok());
        assert!(RectGrid::uniform(0, 8).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let a = RectGrid::uniform(4, 8).unwrap();
        let b = RectGrid::uniform(4, 8).unwrap();
        let c = RectGrid::uniform(8, 16).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), RectGrid::gaussian(4, 8).unwrap().fingerprint());
        // matches the free-function form used for variable axes
        assert_eq!(a.fingerprint(), axes_fingerprint(&a.lat, &a.lon));
    }

    #[test]
    fn fingerprint_collisions_by_construction_are_avoided() {
        // Same flattened value stream [0, 10, 20, 30] split differently
        // between lat and lon: length prefixes must keep these distinct.
        let g1 = RectGrid::new(
            Axis::latitude(vec![0.0, 10.0]).unwrap(),
            Axis::longitude(vec![20.0, 30.0]).unwrap(),
        )
        .unwrap();
        let g2 = RectGrid::new(
            Axis::latitude(vec![0.0]).unwrap(),
            Axis::longitude(vec![10.0, 20.0, 30.0]).unwrap(),
        )
        .unwrap();
        assert_ne!(g1.fingerprint(), g2.fingerprint());

        // Same centres, different explicit bounds: conservative weights
        // differ, so the fingerprint must too.
        let mut lat = Axis::latitude(vec![-30.0, 30.0]).unwrap();
        let lon = Axis::longitude(vec![0.0, 180.0]).unwrap();
        lat.bounds = Some(vec![(-60.0, 0.0), (0.0, 60.0)]);
        let narrow = {
            let mut l = lat.clone();
            l.bounds = Some(vec![(-40.0, -20.0), (20.0, 40.0)]);
            RectGrid { lat: l, lon: lon.clone() }
        };
        let wide = RectGrid { lat, lon };
        assert_eq!(wide.lat.values, narrow.lat.values);
        assert_ne!(wide.fingerprint(), narrow.fingerprint());

        // Bounds present vs absent on otherwise identical axes.
        let with = RectGrid::uniform(3, 6).unwrap(); // new() generates bounds
        let without = RectGrid {
            lat: Axis::latitude(with.lat.values.clone()).unwrap(),
            lon: Axis::longitude(with.lon.values.clone()).unwrap(),
        };
        assert_ne!(with.fingerprint(), without.fingerprint());
    }
}
