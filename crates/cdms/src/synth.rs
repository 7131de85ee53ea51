//! Deterministic synthetic climate fields.
//!
//! The paper's demonstrations run on NASA model output we do not have; this
//! module substitutes physically-shaped synthetic data so every DV3D plot
//! type shows the structures the paper's screenshots show:
//!
//! * `ta` — air temperature with a meridional gradient, a lapse rate in
//!   log-pressure, a zonal wavenumber-4 disturbance and a seasonal cycle.
//! * `zg` — geopotential height from the barometric relation.
//! * `hus` — specific humidity, moist tropics decaying upward.
//! * `ua`, `va` — horizontal winds derived *analytically from a
//!   streamfunction*, hence non-divergent: a subtropical jet plus a
//!   propagating wave (gives the vector-slicer streamlines structure).
//! * `wave` — an eastward-propagating equatorial wave with a known phase
//!   speed, the Hovmöller (Fig 4) workload; the measured slope of its
//!   Hovmöller ridge is checked against the configured speed.
//! * `sftlf` — a land-fraction field from thresholded low-frequency bumps
//!   (synthetic continents for base-map outlines).
//! * `tos` — sea-surface temperature, masked over land (exercises masks).
//! * `pr` — precipitation with an ITCZ band and noise.
//!
//! Everything is seeded and reproducible, and independent of the thread
//! count: the `(time, level)` planes of the 4-D fields are filled in one
//! `rayon` region, each plane from the noise stream's state at its start,
//! recorded by one serial pass that draws the stream in row-major order.
//! Every factor of a field is computed once at the loop level it depends
//! on, its expression's association kept, so each value is bit for bit
//! the one a point-by-point evaluation gives (DESIGN §32).

use crate::array::MaskedArray;
use crate::axis::Axis;
use crate::calendar::Calendar;
use crate::dataset::Dataset;
use crate::error::Result;
use crate::variable::Variable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Finalises a synthesis-internal construction. Every call site feeds data
/// this module just built — buffers filled by loops over exactly the shape
/// they are paired with, axis values generated monotonic — so an `Err` here
/// is a bug in `synth` itself, never a runtime input condition. Panicking
/// loudly (and in tests) is the right response to that bug.
fn built<T>(what: &str, r: Result<T>) -> T {
    match r {
        Ok(v) => v,
        // dv3dlint: allow(no_panic) -- shapes and axes are correct by construction in this module; see doc comment
        Err(e) => panic!("synth invariant broken building {what}: {e}"),
    }
}

/// Builds a variable around freshly synthesised data (see [`built`]).
fn synth_var(name: &str, arr: Result<MaskedArray>, axes: Vec<Axis>) -> Variable {
    built(name, arr.and_then(|a| Variable::new(name, a, axes)))
}

/// Standard pressure levels (hPa), top-down subset selected by `nlev`.
const STANDARD_PLEVS: [f64; 17] = [
    1000.0, 925.0, 850.0, 700.0, 600.0, 500.0, 400.0, 300.0, 250.0, 200.0, 150.0, 100.0, 70.0,
    50.0, 30.0, 20.0, 10.0,
];

/// Configuration for the synthetic-atmosphere generator.
#[derive(Debug, Clone)]
pub struct SynthesisSpec {
    /// Number of timesteps (daily).
    pub nt: usize,
    /// Number of pressure levels.
    pub nlev: usize,
    /// Number of latitudes.
    pub nlat: usize,
    /// Number of longitudes.
    pub nlon: usize,
    /// RNG seed for the noise component.
    pub seed: u64,
    /// Noise standard deviation (K for temperature-like fields).
    pub noise: f32,
    /// Eastward phase speed of the `wave` field, degrees/day.
    pub wave_speed_deg_per_day: f64,
    /// Zonal wavenumber of the `wave` field.
    pub wave_number: f64,
}

impl SynthesisSpec {
    /// A spec with sensible defaults for the given sizes.
    pub fn new(nt: usize, nlev: usize, nlat: usize, nlon: usize) -> SynthesisSpec {
        SynthesisSpec {
            nt,
            nlev: nlev.clamp(1, STANDARD_PLEVS.len()),
            nlat,
            nlon,
            seed: 42,
            noise: 0.5,
            wave_speed_deg_per_day: 8.0,
            wave_number: 5.0,
        }
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> SynthesisSpec {
        self.seed = seed;
        self
    }

    /// Overrides the noise amplitude.
    pub fn noise(mut self, noise: f32) -> SynthesisSpec {
        self.noise = noise;
        self
    }

    /// Overrides the Hovmöller wave parameters.
    pub fn wave(mut self, speed_deg_per_day: f64, wavenumber: f64) -> SynthesisSpec {
        self.wave_speed_deg_per_day = speed_deg_per_day;
        self.wave_number = wavenumber;
        self
    }

    /// The time axis (daily, noleap calendar, from 2000-01-01).
    pub fn time_axis(&self) -> Axis {
        built(
            "time axis",
            Axis::time(
                (0..self.nt).map(|t| t as f64).collect(),
                "days since 2000-01-01",
                Calendar::NoLeap365,
            ),
        )
    }

    /// The pressure-level axis (hPa, descending pressure = ascending height).
    pub fn level_axis(&self) -> Axis {
        built("level axis", Axis::pressure_levels(STANDARD_PLEVS[..self.nlev].to_vec()))
    }

    /// The latitude axis (uniform cell centres, pole-inset).
    pub fn lat_axis(&self) -> Axis {
        let dlat = 180.0 / self.nlat as f64;
        built(
            "latitude axis",
            Axis::latitude((0..self.nlat).map(|i| -90.0 + dlat / 2.0 + dlat * i as f64).collect()),
        )
    }

    /// The longitude axis (uniform, global, starting at 0°E).
    pub fn lon_axis(&self) -> Axis {
        let dlon = 360.0 / self.nlon as f64;
        built("longitude axis", Axis::longitude((0..self.nlon).map(|i| dlon * i as f64).collect()))
    }

    /// Generates the full synthetic dataset.
    pub fn build(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let time = self.time_axis();
        let lev = self.level_axis();
        let lat = self.lat_axis();
        let lon = self.lon_axis();
        let (nt, nl, ny, nx) = (self.nt, self.nlev, self.nlat, self.nlon);

        let mut ds = Dataset::new("synth_atmosphere")
            .with_attr("institution", "dv3d-rs synthetic generator")
            .with_attr("experiment", "control")
            .with_attr("model", "SYNTH-1")
            .with_attr("seed", self.seed as i64);

        let lat_v = &lat.values;
        let lon_v = &lon.values;
        let plev = &lev.values;
        // log-pressure pseudo-height in km: H ln(p0/p), H ≈ 7 km
        let zstar: Vec<f64> = plev.iter().map(|&p| 7.0 * (1000.0 / p).ln()).collect();

        let land = self.land_fraction(&mut StdRng::seed_from_u64(self.seed ^ 0x5EED));

        // ---- 4D fields ----
        // Each factor is computed at the loop level it depends on (a day,
        // a level, a latitude row or a longitude column) with its
        // expression's association kept, so every value is the one a
        // point-by-point evaluation gives. The `(time, level)` planes are
        // filled in parallel.
        let shape4 = [nt, nl, ny, nx];
        let n4: usize = shape4.iter().product();
        let plane = ny * nx;
        let mut ta = vec![0.0f32; n4];
        let mut zg = vec![0.0f32; n4];
        let mut hus = vec![0.0f32; n4];
        let mut ua = vec![0.0f32; n4];
        let mut va = vec![0.0f32; n4];
        let lam: Vec<f64> = lon_v.iter().take(nx).map(|d| d.to_radians()).collect();
        let days: Vec<Day> = (0..nt).map(|t| Day::new(t as f64, &lam)).collect();
        let levels: Vec<Level> = zstar.iter().map(|&z| Level::new(z)).collect();
        let rows: Vec<Row> = lat_v.iter().take(ny).map(|&phi| Row::new(phi)).collect();
        let noise = self.noise as f64;
        // One serial pass draws the noise stream in row-major order and
        // records the generator at the start of each plane.
        let states: Vec<StdRng> = (0..nt * nl)
            .map(|_| {
                let start = rng.clone();
                for _ in 0..plane {
                    rng.gen_range(-1.0..1.0);
                }
                start
            })
            .collect();
        let chunk = plane.max(1);
        let outputs = ta.par_chunks_mut(chunk).zip(zg.par_chunks_mut(chunk)).zip(
            hus.par_chunks_mut(chunk).zip(ua.par_chunks_mut(chunk)).zip(va.par_chunks_mut(chunk)),
        );
        outputs.zip(states.par_iter()).enumerate().for_each(
            |(p, (((ta, zg), ((hus, ua), va)), rng))| {
                let (Some(day), Some(level)) =
                    (days.get(p / nl.max(1)), levels.get(p % nl.max(1)))
                else {
                    return;
                };
                let mut rng = rng.clone();
                let rows_out = ta.chunks_mut(nx).zip(zg.chunks_mut(nx)).zip(
                    hus.chunks_mut(nx).zip(ua.chunks_mut(nx)).zip(va.chunks_mut(nx)),
                );
                for (row, ((ta, zg), ((hus, ua), va))) in rows.iter().zip(rows_out) {
                    let base = 288.0 + row.merid - level.lapse;
                    let seasonal = day.ten_season * row.sin_phi;
                    let q = level.q0 * row.moist;
                    let u_jet = level.jet * row.jets;
                    for i in 0..nx {
                        // temperature
                        let wave4 = 4.0 * day.cos4[i] * row.e45 * level.ez12;
                        let noise = rng.gen_range(-1.0..1.0) * noise;
                        let temp = base + wave4 + seasonal + noise;
                        ta[i] = temp as f32;
                        // geopotential height (barometric, km → m)
                        zg[i] = (level.z_m * (temp / 288.0) + 50.0 * wave4) as f32;
                        // humidity: moist surface tropics decaying with height
                        hus[i] = (q * day.hum[i]).max(1e-6) as f32;
                        // winds from streamfunction ψ = jet + wave (analytic partials)
                        let dpsi_dphi = level.b * day.cos4[i] * row.env * row.dgauss * RAD_TO_DEG;
                        ua[i] = (u_jet + -dpsi_dphi / EARTH_RADIUS) as f32;
                        va[i] = (level.minus_bk * day.sin4[i] * row.env / row.a_cos) as f32;
                    }
                }
            },
        );

        let axes4 = vec![time.clone(), lev.clone(), lat.clone(), lon.clone()];
        ds.add_variable(
            synth_var("ta", MaskedArray::from_vec(ta, &shape4), axes4.clone())
                .with_attr("units", "K")
                .with_attr("long_name", "air temperature"),
        );
        ds.add_variable(
            synth_var("zg", MaskedArray::from_vec(zg, &shape4), axes4.clone())
                .with_attr("units", "m")
                .with_attr("long_name", "geopotential height"),
        );
        ds.add_variable(
            synth_var("hus", MaskedArray::from_vec(hus, &shape4), axes4.clone())
                .with_attr("units", "1")
                .with_attr("long_name", "specific humidity"),
        );
        ds.add_variable(
            synth_var("ua", MaskedArray::from_vec(ua, &shape4), axes4.clone())
                .with_attr("units", "m s-1")
                .with_attr("long_name", "eastward wind"),
        );
        ds.add_variable(
            synth_var("va", MaskedArray::from_vec(va, &shape4), axes4)
                .with_attr("units", "m s-1")
                .with_attr("long_name", "northward wind"),
        );

        // ---- 3D fields (time, lat, lon) ----
        let shape3 = [nt, ny, nx];
        let n3: usize = shape3.iter().product();
        let mut wave = Vec::with_capacity(n3);
        let mut pr = Vec::with_capacity(n3);
        let mut tos = Vec::with_capacity(n3);
        let mut tos_mask = Vec::with_capacity(n3);
        let k = self.wave_number;
        let c = self.wave_speed_deg_per_day;
        let land_mask: Vec<bool> = land.iter().map(|&v| v > 0.5).collect();
        for t in 0..nt {
            let day = t as f64;
            // eastward-propagating equatorial wave, phase speed c °/day
            let phase_cos: Vec<f64> =
                lon_v.iter().take(nx).map(|&d| (k * (d - c * day)).to_radians().cos()).collect();
            let sst_wave: Vec<f64> =
                lam.iter().map(|&lam| 0.5 * (3.0 * lam + 0.05 * day).sin()).collect();
            for row in &rows {
                for (&cos, &sst_wave) in phase_cos.iter().zip(&sst_wave) {
                    wave.push((row.envelope * cos) as f32);
                    // precipitation: ITCZ band + wave modulation + noise
                    let p = row.itcz * (1.0 + row.half_envelope * cos) + rng.gen_range(0.0..0.5);
                    pr.push(p.max(0.0) as f32);
                    // SST: masked over land
                    tos.push((row.sst + sst_wave) as f32);
                }
            }
            tos_mask.extend_from_slice(&land_mask);
        }
        let axes3 = vec![time.clone(), lat.clone(), lon.clone()];
        ds.add_variable(
            synth_var("wave", MaskedArray::from_vec(wave, &shape3), axes3.clone())
                .with_attr("units", "1")
                .with_attr("long_name", "propagating wave amplitude")
                .with_attr("phase_speed_deg_per_day", c)
                .with_attr("zonal_wavenumber", k),
        );
        ds.add_variable(
            synth_var("pr", MaskedArray::from_vec(pr, &shape3), axes3.clone())
                .with_attr("units", "mm day-1")
                .with_attr("long_name", "precipitation"),
        );
        ds.add_variable(
            synth_var("tos", MaskedArray::with_mask(tos, tos_mask, &shape3), axes3)
                .with_attr("units", "K")
                .with_attr("long_name", "sea surface temperature"),
        );

        // ---- 2D land fraction ----
        let land_f32: Vec<f32> = land.iter().map(|&v| v as f32).collect();
        ds.add_variable(
            synth_var("sftlf", MaskedArray::from_vec(land_f32, &[ny, nx]), vec![lat, lon])
                .with_attr("units", "1")
                .with_attr("long_name", "land area fraction"),
        );

        ds
    }

    /// Synthetic land fraction: a sum of low-frequency bumps, smoothly
    /// thresholded. Deterministic given the rng.
    fn land_fraction(&self, rng: &mut StdRng) -> Vec<f64> {
        let lat = self.lat_axis();
        let lon = self.lon_axis();
        // Random "continent" centres, sizes and weights.
        let n_blobs = 6;
        let blobs: Vec<(f64, f64, f64, f64)> = (0..n_blobs)
            .map(|_| {
                (
                    rng.gen_range(-65.0..70.0),   // centre latitude
                    rng.gen_range(0.0..360.0),    // centre longitude
                    rng.gen_range(18.0..42.0),    // radius (deg)
                    rng.gen_range(0.8..1.4),      // weight
                )
            })
            .collect();
        let mut field = Vec::with_capacity(self.nlat * self.nlon);
        for &phi in &lat.values {
            for &lam in &lon.values {
                let mut h = 0.0;
                for &(bphi, blam, r, w) in &blobs {
                    let mut dlam = (lam - blam).rem_euclid(360.0);
                    if dlam > 180.0 {
                        dlam = 360.0 - dlam;
                    }
                    let d2 = ((phi - bphi) / r).powi(2) + (dlam / (1.5 * r)).powi(2);
                    h += w * (-d2).exp();
                }
                // smooth threshold → fraction in [0, 1]
                field.push(1.0 / (1.0 + (-(h - 0.55) * 12.0).exp()));
            }
        }
        field
    }
}

/// Earth radius, m.
const EARTH_RADIUS: f64 = 6.371e6;

/// Degrees per radian.
const RAD_TO_DEG: f64 = 180.0 / std::f64::consts::PI;

/// The factors of the 4-D fields that depend on the day alone, per
/// longitude column where they also depend on the longitude.
///
/// `cos4` and `sin4` share one angle, `θ = kλ − ωt` with `k = 4`,
/// `ω = 0.15`: the phase of the temperature's wavenumber-4 disturbance and
/// of the wave streamfunction `ψ_w = B cos θ exp(−(φ/25)²)`.
struct Day {
    /// The seasonal cycle's amplitude at this day.
    ten_season: f64,
    cos4: Vec<f64>,
    sin4: Vec<f64>,
    /// The humidity's zonal modulation.
    hum: Vec<f64>,
}

impl Day {
    fn new(day: f64, lam: &[f64]) -> Day {
        let season = (2.0 * std::f64::consts::PI * day / 365.0).cos();
        let theta = |lam: f64| 4.0 * lam - 0.15 * day;
        Day {
            ten_season: 10.0 * season,
            cos4: lam.iter().map(|&lam| theta(lam).cos()).collect(),
            sin4: lam.iter().map(|&lam| theta(lam).sin()).collect(),
            hum: lam.iter().map(|&lam| 1.0 + 0.2 * (2.0 * lam - 0.1 * day).sin()).collect(),
        }
    }
}

/// The factors that depend on the pressure level alone, at log-pressure
/// pseudo-height `z` km.
struct Level {
    /// Troposphere lapse + weak stratospheric inversion.
    lapse: f64,
    /// Decay of the wavenumber-4 disturbance with height.
    ez12: f64,
    /// `z` in metres.
    z_m: f64,
    /// Humidity scale, decayed to this level.
    q0: f64,
    /// Peak speed of the jets.
    jet: f64,
    /// Amplitude `B` of the wave streamfunction.
    b: f64,
    /// `−B k`.
    minus_bk: f64,
}

impl Level {
    fn new(z: f64) -> Level {
        let height_factor = (z / 12.0).clamp(0.15, 1.0);
        let b = 4.0e6 * height_factor;
        Level {
            lapse: 6.5 * z.min(16.0) - 2.0 * (z - 16.0).max(0.0),
            ez12: (-(z / 12.0)).exp().max(0.2),
            z_m: z * 1000.0,
            q0: 0.018 * (-(z / 2.5)).exp(),
            jet: 35.0 * height_factor,
            b,
            minus_bk: -b * 4.0,
        }
    }
}

/// The factors that depend on the latitude `φ` alone.
///
/// The winds come from the analytic streamfunction
/// `ψ(φ, λ, t) = ψ_jet(φ) + ψ_w(φ, λ, t)` as `u = −∂ψ/∂y`, `v = ∂ψ/∂x`,
/// hence exactly non-divergent: `u_jet` is two Gaussian subtropical jets at
/// ±40°, `u_w = −(1/a) ∂ψ_w/∂φ` and `v_w = (1/(a cos φ)) ∂ψ_w/∂λ`.
struct Row {
    sin_phi: f64,
    /// Meridional temperature gradient.
    merid: f64,
    /// Midlatitude envelope of the wavenumber-4 disturbance.
    e45: f64,
    /// Tropical profile of humidity.
    moist: f64,
    /// Profile of the two jets.
    jets: f64,
    /// The wave streamfunction's envelope `exp(−(φ/25)²)`.
    env: f64,
    /// `d/dφ` of the envelope's exponent, per degree.
    dgauss: f64,
    /// `a cos φ`, held off the poles.
    a_cos: f64,
    /// The equatorial wave's envelope.
    envelope: f64,
    /// Its share of the precipitation's wave modulation.
    half_envelope: f64,
    /// The ITCZ band, scaled to mm/day.
    itcz: f64,
    /// Sea-surface temperature before its zonal wave.
    sst: f64,
}

impl Row {
    fn new(phi_deg: f64) -> Row {
        let phi = phi_deg.to_radians();
        let sin_phi = phi.sin();
        let envelope = (-(phi_deg / 15.0).powi(2)).exp();
        Row {
            sin_phi,
            merid: -55.0 * sin_phi * sin_phi,
            e45: (-((phi_deg.abs() - 45.0) / 20.0).powi(2)).exp(),
            moist: (-(phi_deg / 35.0).powi(2)).exp(),
            jets: (-((phi_deg - 40.0) / 12.0f64).powi(2)).exp()
                + (-((phi_deg + 40.0) / 12.0f64).powi(2)).exp(),
            env: (-(phi_deg / 25.0f64).powi(2)).exp(),
            dgauss: -2.0 * phi_deg / (25.0 * 25.0),
            a_cos: EARTH_RADIUS * phi.cos().max(0.05),
            envelope,
            half_envelope: 0.5 * envelope,
            itcz: 8.0 * (-(phi_deg - 7.0).powi(2) / 60.0).exp(),
            sst: 300.0 - 28.0 * sin_phi.powi(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::AxisKind;

    #[test]
    fn builds_expected_inventory() {
        let ds = SynthesisSpec::new(3, 4, 8, 16).build();
        for id in ["ta", "zg", "hus", "ua", "va", "wave", "pr", "tos", "sftlf"] {
            assert!(ds.variable(id).is_some(), "missing {id}");
        }
        assert_eq!(ds.variable("ta").unwrap().shape(), &[3, 4, 8, 16]);
        assert_eq!(ds.variable("wave").unwrap().shape(), &[3, 8, 16]);
        assert_eq!(ds.variable("sftlf").unwrap().shape(), &[8, 16]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SynthesisSpec::new(2, 3, 6, 12).seed(7).build();
        let b = SynthesisSpec::new(2, 3, 6, 12).seed(7).build();
        assert_eq!(a.variable("ta").unwrap().array, b.variable("ta").unwrap().array);
        let c = SynthesisSpec::new(2, 3, 6, 12).seed(8).build();
        assert_ne!(a.variable("ta").unwrap().array, c.variable("ta").unwrap().array);
    }

    #[test]
    fn temperature_is_physical() {
        let ds = SynthesisSpec::new(2, 8, 16, 32).build();
        let ta = ds.variable("ta").unwrap();
        let (lo, hi) = ta.array.min_max().unwrap();
        assert!(lo > 150.0 && hi < 330.0, "ta range [{lo}, {hi}]");
        // surface warmer than aloft on average: level 0 vs last level
        let sfc = ta.array.take(1, 0).unwrap().mean().unwrap();
        let top = ta.array.take(1, 7).unwrap().mean().unwrap();
        assert!(sfc > top + 20.0, "sfc {sfc} vs top {top}");
        // tropics warmer than poles at the surface
        let t0 = ta.time_slab(0).unwrap();
        let sfc2d = t0.array.take(0, 0).unwrap();
        let ny = sfc2d.shape()[0];
        let tropics = sfc2d.take(0, ny / 2).unwrap().mean().unwrap();
        let pole = sfc2d.take(0, 0).unwrap().mean().unwrap();
        assert!(tropics > pole + 20.0);
    }

    #[test]
    fn winds_are_nearly_nondivergent() {
        // Discrete divergence of (ua, va) should be small relative to the
        // velocity magnitude (analytic streamfunction ⇒ non-divergent).
        let ds = SynthesisSpec::new(1, 3, 24, 48).noise(0.0).build();
        let ua = ds.variable("ua").unwrap();
        let va = ds.variable("va").unwrap();
        let u = ua.array.take(0, 0).unwrap().take(0, 1).unwrap(); // (lat, lon) at t0, lev1
        let v = va.array.take(0, 0).unwrap().take(0, 1).unwrap();
        let lat = ua.axis(AxisKind::Latitude).unwrap();
        let lon = ua.axis(AxisKind::Longitude).unwrap();
        let a = 6.371e6;
        let dphi = (lat.values[1] - lat.values[0]).to_radians();
        let dlam = (lon.values[1] - lon.values[0]).to_radians();
        let (ny, nx) = (lat.len(), lon.len());
        let mut div_sum = 0.0f64;
        let mut mag_sum = 0.0f64;
        let mut n = 0;
        for j in 1..ny - 1 {
            let phi = lat.values[j].to_radians();
            if phi.cos() < 0.2 {
                continue; // skip polar caps where the metric blows up
            }
            for i in 0..nx {
                let ip = (i + 1) % nx;
                let im = (i + nx - 1) % nx;
                let dudx = (u.get(&[j, ip]).unwrap() - u.get(&[j, im]).unwrap()) as f64
                    / (2.0 * dlam * a * phi.cos());
                // ∂(v cosφ)/∂φ / (a cosφ)
                let vjp = v.get(&[j + 1, i]).unwrap() as f64
                    * lat.values[j + 1].to_radians().cos();
                let vjm = v.get(&[j - 1, i]).unwrap() as f64
                    * lat.values[j - 1].to_radians().cos();
                let dvdy = (vjp - vjm) / (2.0 * dphi * a * phi.cos());
                div_sum += (dudx + dvdy).abs();
                mag_sum += (u.get(&[j, i]).unwrap().abs() + v.get(&[j, i]).unwrap().abs()) as f64;
                n += 1;
            }
        }
        let mean_div = div_sum / n as f64;
        let mean_mag = mag_sum / n as f64;
        // length scale ~ 1000 km ⇒ compare div · L with |v|
        assert!(
            mean_div * 1.0e6 < 0.35 * mean_mag,
            "divergence too large: div*L={} |v|={}",
            mean_div * 1.0e6,
            mean_mag
        );
    }

    #[test]
    fn wave_propagates_at_configured_speed() {
        // Cross-correlate the equatorial wave at t and t+1: the lag of the
        // correlation peak gives the phase displacement per day.
        let spec = SynthesisSpec::new(4, 1, 16, 72).noise(0.0).wave(8.0, 5.0);
        let ds = spec.build();
        let wave = ds.variable("wave").unwrap();
        let ny = wave.shape()[1];
        let eq = ny / 2;
        let nx = wave.shape()[2];
        let dlon = 360.0 / nx as f64;
        let row = |t: usize| -> Vec<f32> {
            (0..nx).map(|i| wave.array.get(&[t, eq, i]).unwrap()).collect()
        };
        let a = row(0);
        let b = row(1);
        let mut best_lag = 0usize;
        let mut best = f32::NEG_INFINITY;
        for lag in 0..nx {
            let c: f32 = (0..nx).map(|i| a[i] * b[(i + lag) % nx]).sum();
            if c > best {
                best = c;
                best_lag = lag;
            }
        }
        // b(x) = a(x - c·dt), so b[(i + lag) % nx] aligns with a[i] when
        // lag·dlon ≡ c·dt (mod wavelength). k = 5 ⇒ wavelength 72°.
        let wavelength = 360.0 / 5.0;
        let shift_deg = (best_lag as f64 * dlon) % wavelength;
        // Phase ambiguity is dlon; expect ~8°/day within one grid step.
        assert!(
            (shift_deg - 8.0).abs() <= dlon + 1e-9,
            "measured {shift_deg}°/day, expected 8"
        );
    }

    #[test]
    fn land_fraction_in_unit_interval_with_both_phases() {
        let ds = SynthesisSpec::new(1, 1, 24, 48).build();
        let lf = ds.variable("sftlf").unwrap();
        let (lo, hi) = lf.array.min_max().unwrap();
        assert!(lo >= 0.0 && hi <= 1.0);
        let frac_land =
            lf.array.data().iter().filter(|&&v| v > 0.5).count() as f64 / lf.array.len() as f64;
        assert!(frac_land > 0.02 && frac_land < 0.9, "land fraction {frac_land}");
    }

    #[test]
    fn sst_masked_over_land() {
        let ds = SynthesisSpec::new(1, 1, 16, 32).build();
        let tos = ds.variable("tos").unwrap();
        let lf = ds.variable("sftlf").unwrap();
        let (ny, nx) = (16, 32);
        for j in 0..ny {
            for i in 0..nx {
                let land = lf.array.get(&[j, i]).unwrap() > 0.5;
                let masked = tos.array.get_valid(&[0, j, i]).unwrap().is_none();
                assert_eq!(land, masked, "at ({j}, {i})");
            }
        }
    }

    /// FNV-1a 64 over every variable in dataset order: its id, its data
    /// bits and its mask.
    fn dataset_hash(ds: &Dataset) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for var in ds.variables() {
            eat(var.id.as_bytes());
            for v in var.array.data() {
                eat(&v.to_bits().to_le_bytes());
            }
            for &m in var.array.mask() {
                eat(&[m as u8]);
            }
        }
        h
    }

    /// Every value the generator makes, pinned: odd sizes and more
    /// `(time, level)` planes than workers, at 1, 2 and 8 threads.
    #[test]
    fn synthesis_is_pinned_at_any_thread_count() {
        for threads in [1, 2, 8] {
            let ds =
                rayon::with_threads(threads, || SynthesisSpec::new(7, 3, 19, 37).seed(5).build());
            assert_eq!(dataset_hash(&ds), 0x55cb_d3cc_cb84_55d7, "{threads} threads");
        }
    }

    #[test]
    fn humidity_positive_and_decaying() {
        let ds = SynthesisSpec::new(1, 6, 12, 24).build();
        let hus = ds.variable("hus").unwrap();
        let (lo, _) = hus.array.min_max().unwrap();
        assert!(lo > 0.0);
        let sfc = hus.array.take(0, 0).unwrap().take(0, 0).unwrap().mean().unwrap();
        let top = hus.array.take(0, 0).unwrap().take(0, 5).unwrap().mean().unwrap();
        assert!(sfc > top);
    }
}
