//! Ensemble-scale analysis bench: the dependency-counting TaskGraph
//! executor driving the `cdat::ensemble` DAG (N member sources → one
//! regrid-batch node → ensemble reductions → per-region chains). Emits
//! `BENCH_ensemble.json`.
//!
//! The design claim under test: **the event-driven executor scales.**
//! With inner kernels pinned to one rayon worker (so all parallelism
//! comes from task-level overlap), the ensemble DAG at two executor
//! workers must be >= 1.5x faster than `run_serial`. Asserted only when
//! the box has more than one hardware thread and the executor actually
//! resolved more than one worker (`speedup_asserted` in the JSON, the
//! BENCH_render.json convention). A 1/2/4/8 worker sweep is recorded
//! either way.
//!
//! The 2-worker executor is held to bit-identity against `run_serial` on
//! every DAG output before any timing. `ENSEMBLE_BENCH_SMOKE=1` shrinks
//! member count, field shape, and reps for CI smoke runs.

use cdat::ensemble::{self, Region};
use cdat::regrid_plan::RegridMethod;
use cdms::{RectGrid, Variable};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("ENSEMBLE_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Best observed time — the interference-resistant estimator on a shared
/// box, where medians of short timings can swing 2×.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn once_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Asserts two variables carry bit-identical data and identical masks.
fn assert_bit_identical(want: &Variable, got: &Variable, what: &str) {
    let wb: Vec<u32> = want.array.data().iter().map(|v| v.to_bits()).collect();
    let gb: Vec<u32> = got.array.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(wb, gb, "{what}: data bits diverged");
    assert_eq!(want.array, got.array, "{what}: arrays diverged");
}

fn main() {
    let smoke = smoke();
    // Members × (time, lev, lat, lon), regridded up to the analysis grid.
    let (n_members, shape, target, reps) = if smoke {
        (32, (12, 1, 12, 24), RectGrid::uniform(16, 32).expect("grid"), 3)
    } else {
        (48, (12, 2, 24, 48), RectGrid::uniform(32, 64).expect("grid"), 7)
    };
    let regions = [
        Region::new("tropics", (-20.0, 20.0), (0.0, 360.0)),
        Region::new("north", (30.0, 80.0), (0.0, 360.0)),
        Region::new("south", (-80.0, -30.0), (0.0, 360.0)),
    ];
    let method = RegridMethod::Conservative;
    let members = ensemble::synth_members(n_members, shape, 2026).expect("members");

    let hardware_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rayon_env = std::env::var("RAYON_NUM_THREADS").ok();

    let g = ensemble::build_graph(members.clone(), target.clone(), method, &regions)
        .expect("build graph");

    // ---- bit-identity gate, before any timing -------------------------
    // the 2-worker executor against the serial oracle on every output
    let serial = g.run_serial().expect("serial run");
    let par = g.run_with_pool(2).expect("parallel run");
    assert_eq!(serial.outputs.len(), par.outputs.len(), "output sets differ");
    for (name, want) in &serial.outputs {
        let got = par.outputs.get(name).unwrap_or_else(|| panic!("missing output {name}"));
        assert_bit_identical(want, got, &format!("task '{name}' pool 2 vs serial"));
    }
    drop((serial, par));

    // ---- timing: inner kernels pinned to one rayon worker -------------
    // All speedup below must come from executor-level task overlap, not
    // from the kernels' own data parallelism.
    let (serial_ms, sweep) = rayon::with_threads(1, || {
        // serial-oracle baseline
        let mut runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            runs.push(once_ms(|| g.run_serial().expect("serial run")));
        }
        let serial_ms = best(runs);

        if std::env::var("ENSEMBLE_BENCH_DEBUG").is_ok() {
            let report = g.run_serial().expect("serial run");
            let mut by_cost: Vec<(&String, f64)> = report
                .timings
                .iter()
                .map(|(name, d)| (name, d.as_secs_f64() * 1e3))
                .collect();
            by_cost.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            for (name, ms) in by_cost.iter().take(12) {
                println!("task {name}: {ms:.2} ms");
            }
        }

        // 1/2/4/8 executor-worker sweep
        let sweep: Vec<(usize, f64, usize)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let mut runs = Vec::with_capacity(reps);
                let mut workers = 1;
                for _ in 0..reps {
                    runs.push(once_ms(|| {
                        let report = g.run_with_pool(w).expect("pooled run");
                        workers = report.workers;
                        report
                    }));
                }
                (w, best(runs), workers)
            })
            .collect();
        (serial_ms, sweep)
    });
    let (two_ms, two_workers) = sweep
        .iter()
        .find(|&&(w, _, _)| w == 2)
        .map(|&(_, ms, workers)| (ms, workers))
        .unwrap_or((f64::NAN, 1));
    let dag_speedup = serial_ms / two_ms;
    let speedup_asserted = hardware_threads > 1 && two_workers > 1;
    if speedup_asserted {
        assert!(
            dag_speedup >= 1.5,
            "2-worker executor only {dag_speedup:.2}x over run_serial \
             (serial {serial_ms:.2} ms, 2 workers {two_ms:.2} ms)"
        );
    }

    let sweep_json = sweep
        .iter()
        .map(|(w, ms, workers)| {
            format!(
                "    {{ \"requested\": {w}, \"workers\": {workers}, \
                 \"run_ms\": {ms:.4} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ensemble\",\n",
            "  \"smoke\": {},\n",
            "  \"members\": {},\n",
            "  \"member_shape\": \"{}x{}x{}x{}\",\n",
            "  \"dst_grid\": \"{}x{}\",\n",
            "  \"regions\": {},\n",
            "  \"reps\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"rayon_num_threads_env\": {},\n",
            "  \"dag_serial_ms\": {:.4},\n",
            "  \"dag_two_worker_ms\": {:.4},\n",
            "  \"dag_two_worker_speedup\": {:.2},\n",
            "  \"speedup_asserted\": {},\n",
            "  \"worker_sweep\": [\n{}\n  ]\n",
            "}}\n"
        ),
        smoke,
        n_members,
        shape.0,
        shape.1,
        shape.2,
        shape.3,
        target.lat.len(),
        target.lon.len(),
        regions.len(),
        reps,
        hardware_threads,
        rayon_env.map(|v| format!("\"{v}\"")).unwrap_or_else(|| "null".into()),
        serial_ms,
        two_ms,
        dag_speedup,
        speedup_asserted,
        sweep_json,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ensemble.json");
    std::fs::write(path, &json).expect("write artifact");
    println!("{json}");
    println!(
        "bench ensemble: DAG serial {serial_ms:.1} ms vs 2 workers {two_ms:.1} ms \
         ({dag_speedup:.2}x, asserted: {speedup_asserted})"
    );
}
