//! Out-of-core `.ncr` v3 streaming bench. Emits `BENCH_ncr_stream.json`.
//!
//! Three design claims under test:
//!
//! * **Bounded memory** — a time series whose decoded full-resolution
//!   chunks dwarf the cache budget streams through a
//!   [`cdms::StreamingDataset`] whose peak resident chunk bytes NEVER
//!   exceed the budget (the high-water mark is asserted, not sampled:
//!   the cache evicts before it inserts).
//! * **Warm vs cold window latency** — revisiting a cached window costs
//!   cache-hit time, not a ranged read + CRC + decode. Both latencies
//!   are reported so regressions in either path are visible.
//! * **Fault-degraded playback overhead** — a seeded fault storm (dead
//!   chunks, corruption, transients) must not stall playback: every
//!   frame still arrives, degraded or masked where the plan dictates,
//!   and the wall-clock overhead over a healthy pass is reported.
//!
//! Every session here reads on demand only: the streamer has no readahead
//! (see the module docs of `cdms::stream`), so the healthy and the faulted
//! playback rows are one decode per window and nothing else. Recordings
//! made before PR 24 included a window of synchronous prefetch in both
//! rows (and switched it off for the cold/warm rows); compare across that
//! line with that in mind.
//!
//! `NCR_STREAM_BENCH_SMOKE=1` shrinks the series for CI smoke runs.

use cdms::format_v3::{self, V3Options};
use cdms::storage::{FaultyStorage, LocalDisk, StorageFault, StorageFaultPlan};
use cdms::synth::SynthesisSpec;
use cdms::{Storage, StreamOptions, StreamingDataset};
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("NCR_STREAM_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

fn once_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Streaming options for a playback session: tight budget, no artificial
/// waiting.
fn session_opts(cache_bytes: usize) -> StreamOptions {
    StreamOptions {
        cache_bytes,
        max_retries: 3,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        deadline_ms: None,
    }
}

/// Full playback pass over every frame via the degrade-don't-stall path.
/// Returns elapsed ms; panics if any frame fails to arrive.
fn play_all_ms(sd: &StreamingDataset, var: &str) -> f64 {
    let sv = sd.variable(var).expect("variable");
    once_ms(|| {
        for t in 0..sv.n_times() {
            let frame = sv.time_slab_degraded(t).expect("frame must never stall");
            std::hint::black_box(frame);
        }
    })
}

fn main() {
    let (reps, spec, window) = if smoke() {
        (4, SynthesisSpec::new(16, 2, 16, 24).seed(77), 2)
    } else {
        (10, SynthesisSpec::new(64, 2, 32, 48).seed(77), 2)
    };
    let ds = spec.build();
    let opts = V3Options { window, levels: 2, compress: false };
    let dir = std::env::temp_dir().join(format!("ncr_stream_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("series.ncr");
    format_v3::write_dataset_v3_with(&LocalDisk, &ds, &path, &opts).expect("v3 write");

    let meta = format_v3::read_meta_with(&LocalDisk, &path).expect("v3 meta");
    let vi = meta.var_index("ta").expect("'ta' in file");
    let vm = &meta.vars[vi];
    let n_windows = vm.n_windows();
    assert!(n_windows >= 5, "bench needs enough windows to fault a few");
    let decoded_level0_bytes: usize =
        (0..n_windows).map(|w| vm.level_volume(w, 0).expect("volume") * 5).sum();
    // the premise: the series is 4× the cache
    let budget = decoded_level0_bytes / 4;

    // ---- cold vs warm window latency ----
    // cold: first touch of a window in a fresh session;
    // warm: re-touching a window that is already resident.
    let mut cold_ms = f64::INFINITY;
    let mut warm_ms = f64::INFINITY;
    for _ in 0..reps {
        let sd = StreamingDataset::open_with(Arc::new(LocalDisk), &path, session_opts(budget))
            .expect("open");
        let sv = sd.variable("ta").expect("ta");
        cold_ms = cold_ms.min(once_ms(|| sv.time_slab(0).expect("cold fetch")));
        warm_ms = warm_ms.min(once_ms(|| sv.time_slab(1).expect("warm fetch")));
        let r = sd.report();
        assert_eq!(r.cache_misses, 1, "cold touch is exactly one miss");
        assert_eq!(r.cache_hits, 1, "warm touch is exactly one hit");
    }

    // ---- healthy playback under the tight budget ----
    let mut healthy_ms = f64::INFINITY;
    let mut peak_cache = 0u64;
    let mut evictions = 0u64;
    for _ in 0..reps {
        let sd = StreamingDataset::open_with(Arc::new(LocalDisk), &path, session_opts(budget))
            .expect("open");
        healthy_ms = healthy_ms.min(play_all_ms(&sd, "ta"));
        let r = sd.report();
        assert!(
            r.peak_cache_bytes as usize <= budget,
            "cache ceiling violated: {} > {budget}",
            r.peak_cache_bytes
        );
        assert_eq!(r.degraded + r.salvaged + r.failed_chunks, 0, "healthy run degraded");
        peak_cache = r.peak_cache_bytes;
        evictions = r.evictions;
    }
    assert!(evictions > 0, "a 4×-budget series must evict");

    // ---- faulted playback: the storm never stalls the animation ----
    // window 1: level 0 dead → degraded frames; window 2: both levels
    // dead → masked frames; window 3: two transient failures → retried.
    let entry = |w: usize, l: usize| *meta.chunk(vi, w, l).expect("chunk entry");
    let fault_plan = || {
        let (e10, e20, e21, e30) = (entry(1, 0), entry(2, 0), entry(2, 1), entry(3, 0));
        StorageFaultPlan::none()
            .inject_read(e10.offset..e10.offset + 1, StorageFault::ReadError, 0)
            .inject_read(e20.offset..e20.offset + 1, StorageFault::ReadError, 0)
            .inject_read(e21.offset..e21.offset + 1, StorageFault::ReadError, 0)
            .inject_read(e30.offset..e30.offset + 1, StorageFault::Transient { times: 0 }, 2)
    };
    let mut faulted_ms = f64::INFINITY;
    let mut degraded = 0u64;
    let mut salvaged = 0u64;
    let mut retried = 0u64;
    let mut failed_chunks = 0u64;
    for _ in 0..reps {
        let storage: Arc<dyn Storage> = Arc::new(FaultyStorage::new(fault_plan()));
        let sd = StreamingDataset::open_with(storage, &path, session_opts(budget)).expect("open");
        faulted_ms = faulted_ms.min(play_all_ms(&sd, "ta"));
        let r = sd.report();
        assert!(r.peak_cache_bytes as usize <= budget, "faulted run broke the ceiling");
        assert_eq!(r.degraded, window as u64, "window 1 serves every frame from the pyramid");
        assert_eq!(r.salvaged, window as u64, "window 2 serves every frame masked");
        assert_eq!(r.failed_chunks, 3);
        degraded = r.degraded;
        salvaged = r.salvaged;
        retried = r.retried;
        failed_chunks = r.failed_chunks;
    }
    let faulted_overhead_pct = (faulted_ms / healthy_ms - 1.0) * 100.0;
    let warm_speedup = cold_ms / warm_ms.max(1e-9);

    std::fs::remove_dir_all(&dir).ok();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ncr_stream\",\n",
            "  \"smoke\": {},\n",
            "  \"reps\": {},\n",
            "  \"frames\": {},\n",
            "  \"windows\": {},\n",
            "  \"decoded_level0_bytes\": {},\n",
            "  \"cache_budget_bytes\": {},\n",
            "  \"peak_cache_bytes\": {},\n",
            "  \"cache_budget_respected\": true,\n",
            "  \"evictions\": {},\n",
            "  \"cold_window_ms\": {:.4},\n",
            "  \"warm_window_ms\": {:.4},\n",
            "  \"warm_speedup_x\": {:.1},\n",
            "  \"healthy_playback_ms\": {:.4},\n",
            "  \"faulted_playback_ms\": {:.4},\n",
            "  \"faulted_overhead_pct\": {:.2},\n",
            "  \"degraded\": {},\n",
            "  \"salvaged\": {},\n",
            "  \"retried\": {},\n",
            "  \"failed_chunks\": {}\n",
            "}}\n"
        ),
        smoke(),
        reps,
        vm.n_times(),
        n_windows,
        decoded_level0_bytes,
        budget,
        peak_cache,
        evictions,
        cold_ms,
        warm_ms,
        warm_speedup,
        healthy_ms,
        faulted_ms,
        faulted_overhead_pct,
        degraded,
        salvaged,
        retried,
        failed_chunks,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ncr_stream.json");
    std::fs::write(out, &json).expect("write artifact");
    println!("{json}");
    println!(
        "bench ncr_stream: peak cache {peak_cache} B of {budget} B budget; \
         warm window {warm_speedup:.1}× faster than cold; \
         fault storm overhead {faulted_overhead_pct:.1}% with every frame served"
    );
}
