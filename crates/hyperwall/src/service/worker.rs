//! Service workers: execute one [`ServiceWork`] item, at full or degraded
//! quality.
//!
//! The work kinds map onto the paper's exploratory-analysis verbs:
//!
//! * [`ServiceWork::Regrid`] plans through the shared
//!   [`cdat::plan_cache`] — many tenants regridding the same grid pair
//!   build the sparse weight plan once between them;
//! * [`ServiceWork::Analysis`] runs deterministic masked reductions;
//! * [`ServiceWork::Render`] rasterizes a small synthetic scene — the
//!   degraded variant is the service edition of the hyperwall's low-res
//!   mirror frame (quarter resolution, same content).
//!
//! Degraded quality is the Overloaded rung of the shed ladder: cheaper,
//! coarser, but never absent — a tenant under overload still gets an
//! answer, just a smaller one.

use crate::protocol::{ResultQuality, ServiceWork};
use crate::{Result, WallError};
use cdms::grid::RectGrid;
use cdms::{MaskedArray, Variable};
use std::time::Instant;

/// Outcome of one executed work item.
#[derive(Debug, Clone, Copy)]
pub struct WorkOutcome {
    /// Content digest of the produced result (deterministic per
    /// `(work, quality)` — the tests verify reproducibility with it).
    pub digest: u64,
    /// Wall time spent computing, in milliseconds.
    pub compute_ms: f64,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer as a running fold
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn digest_f64(h: u64, v: f64) -> u64 {
    mix(h, v.to_bits())
}

fn clamp_dim(n: usize, lo: usize, hi: usize) -> usize {
    n.clamp(lo, hi)
}

/// Executes `work` at `quality`, returning a content digest and timing.
pub fn perform(work: &ServiceWork, quality: ResultQuality) -> Result<WorkOutcome> {
    let start = Instant::now();
    let degraded = quality == ResultQuality::Degraded;
    let digest = match work {
        ServiceWork::Regrid { src, dst, seed } => {
            let (mut sy, mut sx) = (clamp_dim(src.0, 4, 64), clamp_dim(src.1, 4, 128));
            let (mut dy, mut dx) = (clamp_dim(dst.0, 3, 64), clamp_dim(dst.1, 3, 128));
            if degraded {
                // coarsen everything: quarter-size plan, quarter-size apply
                sy = clamp_dim(sy / 2, 4, 64);
                sx = clamp_dim(sx / 2, 4, 128);
                dy = clamp_dim(dy / 4, 3, 64);
                dx = clamp_dim(dx / 4, 3, 128);
            }
            let src_grid = RectGrid::uniform(sy, sx).map_err(wrap)?;
            let dst_grid = RectGrid::uniform(dy, dx).map_err(wrap)?;
            let s = *seed;
            let arr = MaskedArray::from_fn(&[sy, sx], |ix| {
                let v = mix(s, (ix[0] * 131 + ix[1]) as u64);
                ((v % 1000) as f32) / 500.0 - 1.0
            });
            let var = Variable::new("svc", arr, vec![src_grid.lat.clone(), src_grid.lon.clone()])
                .map_err(wrap)?;
            let out = cdat::regrid::bilinear(&var, &dst_grid).map_err(wrap)?;
            let mut h = mix(0x5eed, *seed);
            for (i, v) in out.array.data().iter().enumerate().step_by(7) {
                h = digest_f64(h, f64::from(*v) + i as f64);
            }
            h
        }
        ServiceWork::Analysis { seed, len } => {
            let n = clamp_dim(*len, 16, 65_536);
            let (n, stride) = if degraded { (n, 4) } else { (n, 1) };
            let s = *seed;
            let arr = MaskedArray::from_fn(&[n], |ix| {
                let v = mix(s, ix[0] as u64);
                ((v % 10_000) as f32) / 100.0
            });
            // coarsened analysis: reduce a strided subsample when degraded
            let subset = if stride > 1 {
                MaskedArray::from_fn(&[n / stride], |ix| {
                    let v = mix(s, (ix[0] * stride) as u64);
                    ((v % 10_000) as f32) / 100.0
                })
            } else {
                arr
            };
            let m = cdat::reduce::moments(&subset);
            let mut h = mix(0xa11a, *seed);
            h = digest_f64(h, m.mean().unwrap_or(0.0));
            digest_f64(h, m.variance().unwrap_or(0.0))
        }
        ServiceWork::Render { width, height, seed } => {
            let (mut w, mut hgt) = (clamp_dim(*width, 8, 256), clamp_dim(*height, 8, 256));
            if degraded {
                // the low-res mirror frame: quarter resolution
                w = clamp_dim(w / 4, 8, 256);
                hgt = clamp_dim(hgt / 4, 8, 256);
            }
            let mut fb = rvtk::render::Framebuffer::new(w, hgt);
            let s = *seed;
            for y in 0..hgt {
                for x in 0..w {
                    let v = mix(s, (y * w + x) as u64);
                    if v.is_multiple_of(3) {
                        let c = ((v >> 8) % 256) as f32 / 255.0;
                        fb.set_pixel(x, y, rvtk::Color::rgb(c, 1.0 - c, 0.5));
                    }
                }
            }
            let covered = fb.covered_pixels(rvtk::Color::BLACK) as u64;
            let lum = f64::from(fb.mean_luminance());
            digest_f64(mix(0xfb00, covered), lum)
        }
    };
    Ok(WorkOutcome { digest, compute_ms: start.elapsed().as_secs_f64() * 1e3 })
}

fn wrap(e: cdms::CdmsError) -> WallError {
    WallError::Render(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_deterministic_per_quality() {
        let works = [
            ServiceWork::Regrid { src: (16, 32), dst: (8, 16), seed: 7 },
            ServiceWork::Analysis { seed: 9, len: 512 },
            ServiceWork::Render { width: 64, height: 48, seed: 11 },
        ];
        for w in &works {
            let a = perform(w, ResultQuality::Full).unwrap();
            let b = perform(w, ResultQuality::Full).unwrap();
            assert_eq!(a.digest, b.digest, "{w:?} full-quality digest must be stable");
            let d1 = perform(w, ResultQuality::Degraded).unwrap();
            let d2 = perform(w, ResultQuality::Degraded).unwrap();
            assert_eq!(d1.digest, d2.digest, "{w:?} degraded digest must be stable");
            assert_ne!(a.digest, d1.digest, "{w:?} degraded result differs from full");
        }
    }

    #[test]
    fn regrid_work_hits_the_shared_plan_cache() {
        let w = ServiceWork::Regrid { src: (21, 43), dst: (9, 19), seed: 3 };
        let before = cdat::plan_cache::global_stats();
        perform(&w, ResultQuality::Full).unwrap();
        let mid = cdat::plan_cache::global_stats();
        perform(&w, ResultQuality::Full).unwrap();
        let after = cdat::plan_cache::global_stats();
        assert!(
            mid.hits + mid.misses > before.hits + before.misses,
            "first run consulted the shared cache"
        );
        assert!(after.hits > mid.hits, "second identical regrid reuses the plan");
    }

    #[test]
    fn degraded_render_is_strictly_cheaper() {
        let w = ServiceWork::Render { width: 256, height: 256, seed: 5 };
        // warm up once to avoid first-touch noise, then compare
        perform(&w, ResultQuality::Full).unwrap();
        let full = perform(&w, ResultQuality::Full).unwrap();
        let degraded = perform(&w, ResultQuality::Degraded).unwrap();
        assert!(
            degraded.compute_ms <= full.compute_ms * 1.5,
            "degraded ({:.3}ms) should not cost more than full ({:.3}ms)",
            degraded.compute_ms,
            full.compute_ms
        );
    }
}
