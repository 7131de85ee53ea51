//! Oracles for the lane-form reductions under `cdat::pipeline::run`.
//!
//! 1. **The tiled axis kernels are the slab loops they replaced.**
//!    `reduce::weighted_mean_axis` and `reduce::mean_axis` must give data
//!    AND mask bit-identical to verbatim copies of the per-slab branchy
//!    loops they were before tiling — for an outermost reduced axis, inner
//!    dimensions that are no multiple of the tile, slabs shorter than a
//!    tile, all-masked cells and masked lanes holding NaN / ∞ — under
//!    rayon pools of 1, 2 and 8.
//! 2. **Fusion is still invisible at the benchmark's size.**
//!    `pipeline::run` on the regridded-window shape 4×8×180×360 (127
//!    four-block groups, where the unit tests' fields fit in one) equals
//!    the stepwise anomaly → standardize → spatial_mean chain, with and
//!    without masked lanes, under the same pools.
//!
//! The moment kernel's oracle compares private sums and lives beside it in
//! `reduce.rs`.

use cdat::pipeline::{self, AnalysisStep};
use cdat::{averager, climatology, reduce, statistics};
use cdms::synth::SynthesisSpec;
use cdms::{MaskedArray, Variable};
use rayon::with_threads;

fn bits(a: &MaskedArray) -> (Vec<u32>, Vec<bool>, Vec<usize>) {
    (a.data().iter().map(|v| v.to_bits()).collect(), a.mask().to_vec(), a.shape().to_vec())
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545f4914f6cdd1d)
}

/// A field with ~`masked_pct` % masked lanes holding NaN / ±∞ / garbage,
/// and every 11th cell of the reduced output masked along the whole axis.
fn masked_field(shape: &[usize], axis: usize, masked_pct: u64, seed: u64) -> MaskedArray {
    let n: usize = shape.iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    let k = shape[axis];
    let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut data = Vec::with_capacity(n);
    let mut mask = Vec::with_capacity(n);
    for flat in 0..n {
        let r = xorshift(&mut rng);
        let cell = flat / (k * inner) * inner + flat % inner;
        let masked = r % 100 < masked_pct || cell % 11 == 5;
        data.push(if masked {
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -3.0e38][(r >> 8) as usize % 4]
        } else {
            (r >> 40) as f32 / 1000.0 - 8000.0
        });
        mask.push(masked);
    }
    MaskedArray::with_mask(data, mask, shape).unwrap()
}

fn split(shape: &[usize], axis: usize) -> (usize, usize, usize, Vec<usize>) {
    let outer = shape[..axis].iter().product();
    let inner = shape[axis + 1..].iter().product();
    let mut out_shape = shape.to_vec();
    out_shape.remove(axis);
    if out_shape.is_empty() {
        out_shape.push(1);
    }
    (outer, shape[axis], inner, out_shape)
}

/// `reduce::weighted_mean_axis` as it was before tiling: one pass per outer
/// slab, a branch per lane.
fn slab_weighted_mean_axis(arr: &MaskedArray, axis: usize, weights: &[f64]) -> MaskedArray {
    let (outer, k, inner, out_shape) = split(arr.shape(), axis);
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    for (o, (dd, mm)) in
        data.chunks_mut(inner.max(1)).zip(mask.chunks_mut(inner.max(1))).enumerate()
    {
        let mut wsum = vec![0.0f64; dd.len()];
        let mut vsum = vec![0.0f64; dd.len()];
        for (j, &w) in weights.iter().enumerate() {
            let base = (o * k + j) * inner;
            let drow = &src_d[base..base + inner];
            let mrow = &src_m[base..base + inner];
            for (((ws, vs), &v), &m) in wsum.iter_mut().zip(vsum.iter_mut()).zip(drow).zip(mrow) {
                if !m {
                    *ws += w;
                    *vs += w * v as f64;
                }
            }
        }
        for (((d, mk), &ws), &vs) in dd.iter_mut().zip(mm.iter_mut()).zip(&wsum).zip(&vsum) {
            if ws > 0.0 {
                *d = (vs / ws) as f32;
            } else {
                *mk = true;
            }
        }
    }
    MaskedArray::with_mask(data, mask, &out_shape).unwrap()
}

/// `reduce::mean_axis` as it was before tiling: `f64` sum over a `u32`
/// count per cell.
fn slab_mean_axis(arr: &MaskedArray, axis: usize) -> MaskedArray {
    let (outer, k, inner, out_shape) = split(arr.shape(), axis);
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    for (o, (dd, mm)) in
        data.chunks_mut(inner.max(1)).zip(mask.chunks_mut(inner.max(1))).enumerate()
    {
        let mut sum = vec![0.0f64; dd.len()];
        let mut cnt = vec![0u32; dd.len()];
        for j in 0..k {
            let base = (o * k + j) * inner;
            let drow = &src_d[base..base + inner];
            let mrow = &src_m[base..base + inner];
            for (((s, c), &v), &m) in sum.iter_mut().zip(cnt.iter_mut()).zip(drow).zip(mrow) {
                if !m {
                    *s += v as f64;
                    *c += 1;
                }
            }
        }
        for (((d, mk), &s), &c) in dd.iter_mut().zip(mm.iter_mut()).zip(&sum).zip(&cnt) {
            if c > 0 {
                *d = (s / c as f64) as f32;
            } else {
                *mk = true;
            }
        }
    }
    MaskedArray::with_mask(data, mask, &out_shape).unwrap()
}

#[test]
fn tiled_axis_means_equal_the_slab_loops_bit_for_bit() {
    // (shape, axis): the reduced axis outermost with a ragged last tile, an
    // exact tile multiple, slabs shorter than a tile (several per tile, the
    // last tile short), a long ragged slab inside outer slabs, inner == 1
    let cases: [(&[usize], usize); 7] = [
        (&[4, 2500], 0),
        (&[5, 2048], 0),
        (&[7, 3, 300], 1),
        (&[2, 180, 360], 1),
        (&[3, 5, 1101], 1),
        (&[4173, 3], 1),
        (&[9], 0),
    ];
    for (case, &(shape, axis)) in cases.iter().enumerate() {
        for masked_pct in [0, 20, 100] {
            let arr = masked_field(shape, axis, masked_pct, case as u64 * 7 + masked_pct);
            // a zero, a negative and a NaN weight: the NaN must not leak
            // through masked lanes, and must mask every cell it reaches
            let k = shape[axis];
            let mut weights: Vec<f64> = (0..k).map(|j| 0.25 + (j * 37 % 11) as f64 / 7.0).collect();
            let plain = weights.clone();
            weights[0] = 0.0;
            weights[k / 2] = -0.125;
            let mut poisoned = weights.clone();
            poisoned[k - 1] = f64::NAN;
            let want_mean = bits(&slab_mean_axis(&arr, axis));
            for threads in [1, 2, 8] {
                let ctx = format!("{shape:?} axis {axis}, {masked_pct}% masked, {threads} threads");
                for w in [&plain, &weights, &poisoned] {
                    let got = with_threads(threads, || reduce::weighted_mean_axis(&arr, axis, w));
                    assert_eq!(
                        bits(&got.unwrap()),
                        bits(&slab_weighted_mean_axis(&arr, axis, w)),
                        "weighted, {ctx}"
                    );
                }
                let got = with_threads(threads, || reduce::mean_axis(&arr, axis));
                assert_eq!(bits(&got.unwrap()), want_mean, "mean, {ctx}");
            }
        }
    }
}

const CHAIN: [AnalysisStep; 3] =
    [AnalysisStep::Anomaly, AnalysisStep::Standardize, AnalysisStep::SpatialMean];

fn stepwise(var: &Variable) -> Variable {
    let step = climatology::anomaly(var).expect("anomaly");
    let step = statistics::standardize(&step).expect("standardize");
    averager::spatial_mean(&step).expect("spatial mean")
}

#[test]
fn fused_pipeline_equals_the_stepwise_chain_at_the_benchmark_window_size() {
    let ds = SynthesisSpec::new(4, 8, 180, 360).seed(15).build();
    let ta = ds.variable("ta").expect("ta");
    // the masked copy: 20% of the lanes (holding NaN / ∞) plus whole
    // (level, lat, lon) columns masked at every timestep, so the anomaly's
    // time-mean slab has masked cells of its own
    let mut masked = ta.clone();
    let poison = masked_field(ta.shape(), 0, 20, 15);
    let (d, m) = masked.array.parts_mut();
    for (((d, m), &pd), &pm) in d.iter_mut().zip(m.iter_mut()).zip(poison.data()).zip(poison.mask()) {
        if pm {
            (*d, *m) = (pd, true);
        }
    }
    assert!(masked.array.valid_count() < ta.array.len() * 4 / 5);
    for (name, var) in [("unmasked", ta), ("masked", &masked)] {
        let want = with_threads(1, || stepwise(var));
        for threads in [1, 2, 8] {
            let fused = with_threads(threads, || pipeline::run(var, &CHAIN)).expect("fused");
            assert_eq!(fused.id, want.id);
            assert_eq!(fused.axes, want.axes);
            assert_eq!(bits(&fused.array), bits(&want.array), "{name}, {threads} threads");
        }
    }
}
