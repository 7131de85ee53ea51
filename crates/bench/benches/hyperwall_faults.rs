//! Fault-tolerance bench: frame round-trip times of a healthy wall versus
//! the same wall with one permanently dead panel (mirror-substituted).
//!
//! The design claim under test: graceful degradation keeps the wall
//! animating. A healthy frame renders no mirror cell; a dead panel costs
//! the server one low-res mirror render a frame, which overlaps the live
//! clients' renders, so losing a panel must not stall the other panels.
//! Emits `BENCH_hyperwall_faults.json`.

use hyperwall::cluster::{run_wall, run_wall_with_faults, WallRunReport};
use hyperwall::fault::{Fault, FaultPlan};
use hyperwall::server::WallTuning;
use hyperwall::workflow::WallWorkflowConfig;
use std::time::Duration;

const N_CELLS: usize = 4;
const N_FRAMES: u64 = 8;
const REPS: usize = 5;

fn cfg() -> WallWorkflowConfig {
    WallWorkflowConfig { n_cells: N_CELLS, synth: (1, 2, 10, 20), cell_px: (64, 48) }
}

fn tuning() -> WallTuning {
    WallTuning {
        io_deadline: Duration::from_secs(1),
        frame_deadline: Duration::from_secs(1),
        backoff_base_frames: 1,
        max_reconnect_attempts: 1,
        reconnect_poll: Duration::from_millis(5),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Mean per-frame round trip of one run, ms.
fn mean_round_trip(report: &WallRunReport) -> f64 {
    report.frames.iter().map(|f| f.round_trip_ms).sum::<f64>()
        / report.frames.len().max(1) as f64
}

fn main() {
    // healthy wall
    let mut healthy_ms = Vec::new();
    for _ in 0..REPS {
        let report = run_wall(&cfg(), 4, N_FRAMES, &[]).expect("healthy wall");
        assert_eq!(report.degraded_frames, 0);
        healthy_ms.push(mean_round_trip(&report));
    }

    // same wall, one panel dead from frame 0 and never coming back
    let plan = FaultPlan::none()
        .inject(0, Fault::DropAtFrame(0))
        .inject(0, Fault::RefuseReconnect(u32::MAX));
    let mut dead_ms = Vec::new();
    let mut degraded_frames = 0;
    for _ in 0..REPS {
        let report = run_wall_with_faults(&cfg(), 4, N_FRAMES, &[], &plan, tuning())
            .expect("degraded wall");
        assert!(report.degraded_frames > 0, "fault plan had no effect: {report:?}");
        degraded_frames = report.degraded_frames;
        dead_ms.push(mean_round_trip(&report));
    }

    let healthy = median(healthy_ms);
    let dead = median(dead_ms);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"hyperwall_faults\",\n",
            "  \"n_cells\": {},\n",
            "  \"n_frames\": {},\n",
            "  \"reps\": {},\n",
            "  \"healthy_frame_round_trip_ms\": {:.3},\n",
            "  \"one_dead_panel_frame_round_trip_ms\": {:.3},\n",
            "  \"dead_over_healthy_ratio\": {:.3},\n",
            "  \"degraded_panel_frames_per_run\": {}\n",
            "}}\n"
        ),
        N_CELLS,
        N_FRAMES,
        REPS,
        healthy,
        dead,
        dead / healthy,
        degraded_frames
    );
    // workspace root, independent of the bench binary's cwd
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hyperwall_faults.json");
    std::fs::write(path, &json).expect("write artifact");
    println!("{json}");
    println!(
        "bench hyperwall_faults: healthy {healthy:.2} ms/frame, one dead panel {dead:.2} ms/frame"
    );
}
