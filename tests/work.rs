//! The work of each workload, pinned as exact counters: a change that moves
//! one of these numbers changed what the program does, not how fast it
//! does it, and says so where it edits the pin.
//!
//! The wall row drives the `wall_drag` workload's own calls (`benchmark/src/
//! wall.rs`) at a panel size small enough for a debug build: two loopback
//! panels, one `CameraOp::Azimuth` broadcast before every frame after the
//! first, and the workload's session totals read off the server.

use uvcdat::dv3d::interaction::{CameraOp, ConfigOp};
use uvcdat::hyperwall::client::ClientNode;
use uvcdat::hyperwall::fault::FaultPlan;
use uvcdat::hyperwall::server::{HyperwallServer, WallTuning};
use uvcdat::hyperwall::workflow::WallWorkflowConfig;

const PANELS: usize = 2;
/// One more frame than the keyframe cadence, so the run ships a periodic
/// keyframe besides the opening ones.
const FRAMES: u64 = 17;
const DRAG_AZIMUTH_DEG: f64 = 2.0;

/// The `wall_drag` session totals (`Counts` in `benchmark/src/wall.rs`).
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    wire_bytes: u64,
    resyncs: u64,
    delta_rejects: u64,
    degraded_frames: u64,
}

#[test]
fn the_work_of_a_wall_drag_is_pinned() {
    let cfg = WallWorkflowConfig { n_cells: PANELS, synth: (2, 4, 24, 48), cell_px: (64, 48) };
    let mut server = HyperwallServer::bind_tuned(&cfg, 4, WallTuning::default()).unwrap();
    let addr = server.addr().unwrap();
    let clients: Vec<_> = (0..PANELS)
        .map(|id| {
            std::thread::spawn(move || {
                ClientNode::connect_v2(addr, id)?.run_with_faults(FaultPlan::none().client(id))
            })
        })
        .collect();
    server.accept_clients(PANELS).unwrap();
    server.assign_workflows(&cfg).unwrap();
    let (mut wire_bytes, mut keyframe_bytes) = (0, 0);
    for frame in 0..=FRAMES {
        if frame > 0 {
            let op = ConfigOp::Camera(CameraOp::Azimuth(DRAG_AZIMUTH_DEG));
            server.broadcast_op(&op).unwrap();
        }
        let report = server.execute_frame(frame).unwrap();
        assert!(report.degraded.iter().all(|&d| !d), "frame {frame}: {:?}", server.incidents);
        assert!((0..PANELS).all(|i| server.panel_frame_verified(i)), "frame {frame}");
        let bytes: u64 = report.transport_bytes.iter().sum();
        wire_bytes += bytes;
        if frame == 0 {
            keyframe_bytes = bytes;
        }
    }
    assert_eq!(server.panels_synced(), vec![true; PANELS]);
    server.shutdown().unwrap();
    for c in clients {
        assert_eq!(c.join().unwrap().unwrap(), FRAMES + 1);
    }
    let counts = Counts {
        wire_bytes,
        resyncs: server.resync_requests_total(),
        delta_rejects: server.delta_rejects_total(),
        degraded_frames: server.degraded_frames_total(),
    };
    assert_eq!(
        counts,
        Counts { wire_bytes: 150_169, resyncs: 0, delta_rejects: 0, degraded_frames: 0 }
    );
    // frame 0 is the two panels' keyframes
    assert_eq!(keyframe_bytes, 8_345);
}
