//! Property tests for the fused masked-array engine.
//!
//! Three contracts are pinned here:
//!
//! 1. **Fusion is invisible in the bits.** A randomly generated chain of
//!    elementwise ops evaluated through `cdat::expr` (one fused chunked
//!    pass, bit-packed mask words, possibly parallel) must produce data
//!    AND mask bit-identical to a verbatim transcription of the
//!    pre-fusion eager semantics applied one op at a time.
//! 2. **Reductions are thread-count invariant.** `spatial_mean`,
//!    `correlation`, `standardize`, `monthly_climatology` and the fused
//!    pipeline produce bit-identical results under rayon pools of
//!    1, 2 and 8 workers (`rayon::with_threads`).
//! 3. **The O(n) running mean matches the O(n·window) original.** Masks
//!    and counts agree exactly; data agrees to tolerance (prefix-sum
//!    differencing regroups the f64 window sum, which is not a
//!    bit-preserving transformation), and exactly for window 1.

use cdat::expr::{Expr, PredFn, UnaryFn};
use cdat::{averager, climatology, eager_ref, pipeline, statistics};
use cdms::synth::SynthesisSpec;
use cdms::{Axis, AxisKind, MaskedArray, Variable};
use rayon::with_threads;

// ---- deterministic PRNG (no external crates, no wall clock) ----

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform-ish in [-10, 10).
    fn value(&mut self) -> f32 {
        (self.next() % 20_000) as f32 / 1000.0 - 10.0
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

fn random_array(rng: &mut Rng, shape: &[usize]) -> MaskedArray {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    let mut mask = Vec::with_capacity(n);
    for _ in 0..n {
        // occasional non-finite payloads stress the NaN-masking rules
        let v = if rng.chance(2) {
            f32::NAN
        } else if rng.chance(2) {
            f32::INFINITY
        } else {
            rng.value()
        };
        // pre-masked lanes must carry their (arbitrary) payload through
        let m = rng.chance(15);
        data.push(v);
        mask.push(m || v.is_nan());
    }
    // the eager ops never see NaN on a valid lane as *input* except via
    // division; keep unmasked inputs finite so both sides start equal
    for (v, &m) in data.iter_mut().zip(&mask) {
        if !m && !v.is_finite() {
            *v = 1.0;
        }
    }
    MaskedArray::with_mask(data, mask, shape).expect("array")
}

// ---- verbatim pre-fusion eager reference ----
//
// These loops transcribe the semantics the eager MaskedArray ops had
// before the fused engine landed: one full pass and one output
// allocation per op, bool masks, no chunking. They are deliberately
// naive — the property is that the fused engine is indistinguishable.

fn eager_bin(a: &MaskedArray, b: &MaskedArray, op: impl Fn(f32, f32) -> f32) -> MaskedArray {
    let n = a.len();
    let mut data = vec![0.0f32; n];
    let mut mask = vec![false; n];
    for i in 0..n {
        let am = a.mask().get(i).copied().unwrap_or(true);
        let bm = b.mask().get(i).copied().unwrap_or(true);
        if am || bm {
            if let Some(m) = mask.get_mut(i) {
                *m = true;
            }
            continue;
        }
        let v = op(
            a.data().get(i).copied().unwrap_or_default(),
            b.data().get(i).copied().unwrap_or_default(),
        );
        if v.is_nan() {
            if let Some(m) = mask.get_mut(i) {
                *m = true;
            }
        } else if let Some(d) = data.get_mut(i) {
            *d = v;
        }
    }
    MaskedArray::with_mask(data, mask, a.shape()).expect("eager bin")
}

fn eager_map(a: &MaskedArray, f: impl Fn(f32) -> f32) -> MaskedArray {
    let mut out = a.clone();
    let (d, m) = out.parts_mut();
    for (v, mk) in d.iter_mut().zip(m.iter_mut()) {
        if *mk {
            continue;
        }
        let r = f(*v);
        if r.is_nan() || r.is_infinite() {
            *mk = true;
        } else {
            *v = r;
        }
    }
    out
}

fn eager_mask_where(a: &MaskedArray, p: impl Fn(f32) -> bool) -> MaskedArray {
    let mut out = a.clone();
    let (d, m) = out.parts_mut();
    for (v, mk) in d.iter().zip(m.iter_mut()) {
        if !*mk && p(*v) {
            *mk = true;
        }
    }
    out
}

fn eager_mask_where_other(
    a: &MaskedArray,
    cond: &MaskedArray,
    p: impl Fn(f32) -> bool,
) -> MaskedArray {
    let mut out = a.clone();
    let (_, m) = out.parts_mut();
    for ((mk, &cv), &cm) in m.iter_mut().zip(cond.data()).zip(cond.mask()) {
        if cm || p(cv) {
            *mk = true;
        }
    }
    out
}

// ---- 1. fused chain vs eager reference, bit for bit ----

/// One randomly drawn op for the chain comparison.
enum OpSpec {
    Add(MaskedArray),
    Sub(MaskedArray),
    Mul(MaskedArray),
    Div(MaskedArray),
    AddScalar(f32),
    MulScalar(f32),
    SubDiv(f32, f32),
    Sqrt,
    MaskGreater(f32),
    MaskOther(MaskedArray, f32),
}

fn random_chain(rng: &mut Rng, shape: &[usize], len: usize) -> Vec<OpSpec> {
    (0..len)
        .map(|_| match rng.below(10) {
            0 => OpSpec::Add(random_array(rng, shape)),
            1 => OpSpec::Sub(random_array(rng, shape)),
            2 => OpSpec::Mul(random_array(rng, shape)),
            3 => OpSpec::Div(random_array(rng, shape)),
            4 => OpSpec::AddScalar(rng.value()),
            5 => OpSpec::MulScalar(rng.value()),
            6 => OpSpec::SubDiv(rng.value(), rng.value()),
            7 => OpSpec::Sqrt,
            8 => OpSpec::MaskGreater(rng.value()),
            _ => OpSpec::MaskOther(random_array(rng, shape), rng.value()),
        })
        .collect()
}

fn eager_chain(base: &MaskedArray, specs: &[OpSpec]) -> MaskedArray {
    let mut cur = base.clone();
    for spec in specs {
        cur = match spec {
            OpSpec::Add(b) => eager_bin(&cur, b, |a, b| a + b),
            OpSpec::Sub(b) => eager_bin(&cur, b, |a, b| a - b),
            OpSpec::Mul(b) => eager_bin(&cur, b, |a, b| a * b),
            OpSpec::Div(b) => {
                eager_bin(&cur, b, |a, b| if b == 0.0 { f32::NAN } else { a / b })
            }
            OpSpec::AddScalar(s) => eager_map(&cur, |v| v + s),
            OpSpec::MulScalar(s) => eager_map(&cur, |v| v * s),
            OpSpec::SubDiv(sub, div) => eager_map(&cur, |v| (v - sub) / div),
            OpSpec::Sqrt => eager_map(&cur, |v| v.sqrt()),
            OpSpec::MaskGreater(t) => eager_mask_where(&cur, |v| v > *t),
            OpSpec::MaskOther(c, t) => eager_mask_where_other(&cur, c, |v| v > *t),
        };
    }
    cur
}

fn fused_chain(base: &MaskedArray, specs: &[OpSpec]) -> MaskedArray {
    let mut e = Expr::leaf(base);
    for spec in specs {
        e = match spec {
            OpSpec::Add(b) => e + Expr::leaf(b),
            OpSpec::Sub(b) => e - Expr::leaf(b),
            OpSpec::Mul(b) => e * Expr::leaf(b),
            OpSpec::Div(b) => e / Expr::leaf(b),
            OpSpec::AddScalar(s) => e.add_scalar(*s),
            OpSpec::MulScalar(s) => e.mul_scalar(*s),
            OpSpec::SubDiv(sub, div) => e.map(UnaryFn::SubDiv { sub: *sub, div: *div }),
            OpSpec::Sqrt => e.sqrt(),
            OpSpec::MaskGreater(t) => e.mask_where(PredFn::Greater(*t)),
            OpSpec::MaskOther(c, t) => e.mask_where_other(Expr::leaf(c), PredFn::Greater(*t)),
        };
    }
    e.eval().expect("fused eval")
}

fn assert_bits_eq(fused: &MaskedArray, eager: &MaskedArray, ctx: &str) {
    assert_eq!(fused.shape(), eager.shape(), "{ctx}: shape");
    assert_eq!(fused.mask(), eager.mask(), "{ctx}: mask");
    let fb: Vec<u32> = fused.data().iter().map(|v| v.to_bits()).collect();
    let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(fb, eb, "{ctx}: data bits");
}

#[test]
fn fused_chains_match_eager_reference_bit_for_bit() {
    // small shapes cover the serial path, big ones the parallel path
    // (PARALLEL_CUTOFF is 8192 lanes); ragged sizes cover partial words
    let shapes: &[&[usize]] = &[
        &[1],
        &[63],
        &[64],
        &[65],
        &[7, 13],
        &[4096],
        &[3, 5, 7, 11],
        &[12_345],
        &[2, 3, 2048],
    ];
    for (case, shape) in shapes.iter().enumerate() {
        for round in 0..4 {
            let seed = (case * 31 + round) as u64 + 1;
            let mut rng = Rng::new(seed);
            let base = random_array(&mut rng, shape);
            let chain_len = 1 + rng.below(6);
            let specs = random_chain(&mut rng, shape, chain_len);
            let eager = eager_chain(&base, &specs);
            let fused = fused_chain(&base, &specs);
            assert_bits_eq(&fused, &eager, &format!("seed {seed}, shape {shape:?}"));
        }
    }
}

// ---- 2. reductions are bit-identical across pool sizes ----

fn var_bits(v: &Variable) -> (Vec<u32>, Vec<bool>) {
    (v.array.data().iter().map(|x| x.to_bits()).collect(), v.array.mask().to_vec())
}

#[test]
fn reductions_bit_identical_across_thread_counts() {
    // 24 x 4 x 32 x 64 = 196k lanes: well past every parallel cutoff
    let ds = SynthesisSpec::new(24, 4, 32, 64).seed(99).build();
    let ta = ds.variable("ta").expect("ta");
    let tos = ds.variable("tos").expect("tos");

    let reference = with_threads(1, || {
        (
            var_bits(&averager::spatial_mean(ta).expect("spatial")),
            statistics::correlation(ta, ta).expect("corr").to_bits(),
            var_bits(&statistics::standardize(ta).expect("stdz")),
            var_bits(&climatology::monthly_climatology(ta).expect("climo")),
            var_bits(&climatology::anomaly(ta).expect("anom")),
            var_bits(&averager::running_mean_time(ta, 5).expect("rm")),
            var_bits(
                &pipeline::run(
                    ta,
                    &[
                        pipeline::AnalysisStep::Anomaly,
                        pipeline::AnalysisStep::Standardize,
                        pipeline::AnalysisStep::SpatialMean,
                    ],
                )
                .expect("pipeline"),
            ),
            var_bits(&statistics::standardize(tos).expect("stdz tos")),
        )
    });
    for threads in [2usize, 8] {
        let got = with_threads(threads, || {
            (
                var_bits(&averager::spatial_mean(ta).expect("spatial")),
                statistics::correlation(ta, ta).expect("corr").to_bits(),
                var_bits(&statistics::standardize(ta).expect("stdz")),
                var_bits(&climatology::monthly_climatology(ta).expect("climo")),
                var_bits(&climatology::anomaly(ta).expect("anom")),
                var_bits(&averager::running_mean_time(ta, 5).expect("rm")),
                var_bits(
                    &pipeline::run(
                        ta,
                        &[
                            pipeline::AnalysisStep::Anomaly,
                            pipeline::AnalysisStep::Standardize,
                            pipeline::AnalysisStep::SpatialMean,
                        ],
                    )
                    .expect("pipeline"),
                ),
                var_bits(&statistics::standardize(tos).expect("stdz tos")),
            )
        });
        assert_eq!(got, reference, "thread count {threads} changed reduction bits");
    }
}

#[test]
fn expr_eval_bit_identical_across_thread_counts() {
    let mut rng = Rng::new(4242);
    let shape = [40_000usize];
    let base = random_array(&mut rng, &shape);
    let specs = random_chain(&mut rng, &shape, 5);
    let reference = with_threads(1, || fused_chain(&base, &specs));
    for threads in [2usize, 8] {
        let got = with_threads(threads, || fused_chain(&base, &specs));
        assert_bits_eq(&got, &reference, &format!("expr eval at {threads} threads"));
    }
}

// ---- 3. O(n) running mean vs the O(n·window) original ----

fn running_mean_case(var: &Variable, window: usize) {
    let old = eager_ref::running_mean_time(var, window).expect("eager running mean");
    let new = averager::running_mean_time(var, window).expect("fused running mean");
    assert_eq!(new.shape(), old.shape(), "window {window}: shape");
    assert_eq!(new.array.mask(), old.array.mask(), "window {window}: masks must agree exactly");
    for (i, (&nv, &ov)) in new.array.data().iter().zip(old.array.data()).enumerate() {
        if window == 1 {
            // a single-element window is an exact f64->f32 round trip on
            // both paths
            assert_eq!(nv.to_bits(), ov.to_bits(), "window 1, lane {i}");
        } else {
            let tol = 1e-4f32.max(ov.abs() * 1e-5);
            assert!(
                (nv - ov).abs() <= tol,
                "window {window}, lane {i}: prefix {nv} vs direct {ov}"
            );
        }
    }
}

#[test]
fn running_mean_prefix_matches_direct_window_sums() {
    let ds = SynthesisSpec::new(48, 2, 8, 16).seed(7).build();
    let ta = ds.variable("ta").expect("ta");
    for window in [1usize, 3, 5, 9, 47] {
        running_mean_case(ta, window);
    }
}

#[test]
fn running_mean_handles_masked_runs_and_inner_time_axis() {
    // time in the middle (outer > 1) plus long masked stretches: the
    // masked-count-aware prefix arrays must reproduce exactly which
    // windows are empty
    let mut rng = Rng::new(31337);
    let (nlev, nt, nlon) = (3usize, 40usize, 16usize);
    let lev = Axis::new("lev", (0..nlev).map(|i| i as f64).collect(), "hPa", AxisKind::Level)
        .expect("lev");
    let time = Axis::new("time", (0..nt).map(|i| i as f64).collect(), "days since 2000-01-01", AxisKind::Time)
        .expect("time");
    let lon = Axis::new("lon", (0..nlon).map(|i| i as f64 * 2.5).collect(), "degrees_east", AxisKind::Longitude)
        .expect("lon");
    let n = nlev * nt * nlon;
    let mut data = Vec::with_capacity(n);
    let mut mask = Vec::with_capacity(n);
    for i in 0..n {
        data.push(rng.value());
        // long masked stretches: whole blocks of timesteps vanish
        mask.push(rng.chance(30) || (i / nlon) % 7 == 3);
    }
    let arr = MaskedArray::with_mask(data, mask, &[nlev, nt, nlon]).expect("array");
    let var = Variable::new("synthetic", arr, vec![lev, time, lon]).expect("var");
    for window in [1usize, 3, 7, 21] {
        running_mean_case(&var, window);
    }
}
