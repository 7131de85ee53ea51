//! Spawning a full loopback wall: server + N client threads, one scenario.
//!
//! [`run_wall`] runs a healthy wall; `run_wall_with_faults` runs the same
//! scenario under a [`FaultPlan`], exercising the degradation path: panels
//! whose client crashes are served from the server mirror, and the
//! [`WallRunReport`] counts how many panel-frames the audience saw at
//! mirror quality.

use crate::client::ClientNode;
use crate::fault::FaultPlan;
use crate::server::{FrameReport, HyperwallServer, PanelState, WallTuning};
use crate::workflow::{cell_from_plot_stage, WallWorkflowConfig};
use crate::Result;
use dv3d::interaction::ConfigOp;
use std::time::Instant;

/// Summary of one wall run.
#[derive(Debug, Clone)]
pub struct WallRunReport {
    /// Clients that participated.
    pub n_clients: usize,
    /// Time to assign all sub-workflows and get Ready, ms.
    pub assign_ms: f64,
    /// Per-frame reports.
    pub frames: Vec<FrameReport>,
    /// Broadcast latencies of the interaction ops, ms.
    pub op_broadcast_ms: Vec<f64>,
    /// Total frames rendered across all clients.
    pub client_frames: u64,
    /// Panel-frames served from the server mirror instead of a live client.
    pub degraded_frames: u64,
    /// Successful panel recoveries (Degraded → Live).
    pub reconnects: u64,
    /// FrameDone waits that expired at the server's deadline.
    pub deadline_misses: u64,
    /// Health of each panel when the run ended.
    pub final_states: Vec<PanelState>,
    /// Human-readable fault timeline from the server.
    pub incidents: Vec<String>,
    /// Wire bytes of dirty-tile `FrameDelta` messages received.
    pub delta_bytes: u64,
    /// Wire bytes of `FrameKey` full-frame messages received.
    pub key_bytes: u64,
    /// Keyframe resyncs the server requested (dropped / rejected deltas).
    pub resync_requests: u64,
    /// Transport messages an assembler rejected (corrupt, stale, gapped).
    pub delta_rejects: u64,
    /// Per panel: did the run end with a hash-verified assembled frame?
    pub synced_final: Vec<bool>,
}

impl WallRunReport {
    /// Mean client render time across all frames, ms.
    pub fn mean_client_render_ms(&self) -> f64 {
        let all: Vec<f64> = self
            .frames
            .iter()
            .flat_map(|f| f.client_render_ms.iter().copied())
            .collect();
        if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<f64>() / all.len() as f64
        }
    }

    /// Mean server mirror render time per degraded panel-frame, ms; 0 on a
    /// healthy run, which renders no mirror.
    pub fn mirror_ms_per_degraded_frame(&self) -> f64 {
        if self.degraded_frames == 0 {
            0.0
        } else {
            self.frames.iter().map(|f| f.mirror_ms).sum::<f64>() / self.degraded_frames as f64
        }
    }
}

/// Runs a complete wall scenario on loopback: `n_frames` distributed
/// frames, with `ops` broadcast between frame 0 and frame 1 (mirroring a
/// user interacting once at the touchscreen).
pub fn run_wall(
    cfg: &WallWorkflowConfig,
    mirror_downsample: usize,
    n_frames: u64,
    ops: &[ConfigOp],
) -> Result<WallRunReport> {
    run_wall_with_faults(
        cfg,
        mirror_downsample,
        n_frames,
        ops,
        &FaultPlan::none(),
        WallTuning::default(),
    )
}

/// Runs a wall scenario under a fault plan. Every client runs
/// [`ClientNode::run_with_faults`] with its slice of the plan (clients the
/// plan does not mention behave normally), and the server runs with the
/// given [`WallTuning`] deadlines / retry policy.
///
/// The run completes — all `n_frames` frames are served — regardless of
/// which clients the plan kills; failed panels are mirror-substituted and
/// their recovery is attempted with capped exponential backoff.
pub(crate) fn run_wall_with_faults(
    cfg: &WallWorkflowConfig,
    mirror_downsample: usize,
    n_frames: u64,
    ops: &[ConfigOp],
    plan: &FaultPlan,
    tuning: WallTuning,
) -> Result<WallRunReport> {
    let mut server = HyperwallServer::bind_tuned(cfg, mirror_downsample, tuning)?;
    let addr = server.addr()?;
    let n = cfg.n_cells;

    let client_threads: Vec<_> = (0..n)
        .map(|id| {
            let faults = plan.client(id);
            std::thread::spawn(move || -> Result<u64> {
                let client = ClientNode::connect_v2(addr, id)?;
                client.run_with_faults(faults)
            })
        })
        .collect();

    server.accept_clients(n)?;
    let assign_start = Instant::now();
    server.assign_workflows(cfg)?;
    let assign_ms = assign_start.elapsed().as_secs_f64() * 1000.0;

    let mut frames = Vec::new();
    let mut op_broadcast_ms = Vec::new();
    for frame in 0..n_frames {
        if frame == 1 {
            for op in ops {
                op_broadcast_ms.push(server.broadcast_op(op)?);
            }
        }
        frames.push(server.execute_frame(frame)?);
    }
    server.shutdown()?;

    let mut client_frames = 0;
    for t in client_threads {
        client_frames += t.join().map_err(|_| {
            crate::WallError::Protocol("client thread panicked".into())
        })??;
    }
    Ok(WallRunReport {
        n_clients: n,
        assign_ms,
        frames,
        op_broadcast_ms,
        client_frames,
        degraded_frames: server.degraded_frames_total(),
        reconnects: server.reconnects_total(),
        deadline_misses: server.deadline_misses_total(),
        final_states: server.panel_states(),
        incidents: server.incidents.iter().cloned().collect(),
        delta_bytes: server.delta_bytes_total(),
        key_bytes: server.key_bytes_total(),
        resync_requests: server.resync_requests_total(),
        delta_rejects: server.delta_rejects_total(),
        synced_final: server.panels_synced(),
    })
}

/// Renders the same wall workload entirely on one node at full resolution
/// (the no-hyperwall baseline): returns total wall time in ms.
pub fn run_single_node_baseline(cfg: &WallWorkflowConfig, n_frames: u64) -> Result<f64> {
    let (pipeline, chains) = crate::workflow::build_wall_pipeline(cfg)?;
    let mut exec = vistrails::executor::Executor::new(crate::workflow::wall_registry());
    // build all cells once (like clients do)
    let mut cells = chains
        .iter()
        .map(|chain| cell_from_plot_stage(&mut exec, &pipeline, chain.plot, "baseline"))
        .collect::<dv3d::Result<Vec<_>>>()?;
    let start = Instant::now();
    for _ in 0..n_frames {
        for cell in &mut cells {
            cell.render(cfg.cell_px.0, cfg.cell_px.1)?;
        }
    }
    Ok(start.elapsed().as_secs_f64() * 1000.0)
}

#[cfg(test)]
impl WallRunReport {
    /// Fraction of panel-frames served degraded, in `[0, 1]`.
    pub(crate) fn degraded_fraction(&self) -> f64 {
        let total = (self.n_clients as u64) * (self.frames.len() as u64);
        if total == 0 {
            0.0
        } else {
            self.degraded_frames as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use dv3d::interaction::{Axis3, CameraOp};
    use std::time::Duration;

    fn small_cfg(n_cells: usize) -> WallWorkflowConfig {
        WallWorkflowConfig { n_cells, synth: (1, 2, 10, 20), cell_px: (64, 48) }
    }

    fn fast_tuning() -> WallTuning {
        WallTuning {
            io_deadline: Duration::from_secs(1),
            frame_deadline: Duration::from_secs(1),
            backoff_base_frames: 1,
            max_reconnect_attempts: 4,
            reconnect_poll: Duration::from_millis(400),
        }
    }

    #[test]
    fn three_cell_wall_end_to_end() {
        let cfg = small_cfg(3);
        let ops = vec![
            ConfigOp::Camera(CameraOp::Azimuth(20.0)),
            ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 },
        ];
        let report = run_wall(&cfg, 4, 2, &ops).unwrap();
        assert_eq!(report.n_clients, 3);
        assert_eq!(report.frames.len(), 2);
        assert_eq!(report.client_frames, 6);
        assert_eq!(report.op_broadcast_ms.len(), 2);
        // every client rendered something on every frame
        for f in &report.frames {
            assert!(f.coverage.iter().all(|&c| c > 0.0), "{f:?}");
            assert!(f.round_trip_ms > 0.0);
            // every panel live: the server rendered no mirror cell
            assert_eq!(f.mirror_ms, 0.0);
            assert!(f.degraded.iter().all(|&d| !d), "{f:?}");
        }
        assert!(report.assign_ms > 0.0);
        assert!(report.mean_client_render_ms() > 0.0);
        assert_eq!(report.mirror_ms_per_degraded_frame(), 0.0);
        // a healthy wall has a clean fault ledger
        assert_eq!(report.degraded_frames, 0);
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.degraded_fraction(), 0.0);
        assert_eq!(report.final_states, vec![PanelState::Live; 3]);
        assert!(report.incidents.is_empty(), "{:?}", report.incidents);
        // delta transport: frame 0 opened with keyframes, frame 1 shipped
        // dirty-tile deltas
        assert!(report.key_bytes > 0, "{report:?}");
        assert!(report.delta_bytes > 0, "{report:?}");
        assert_eq!(report.resync_requests, 0);
        assert_eq!(report.delta_rejects, 0);
        assert_eq!(report.synced_final, vec![true; 3]);
        for f in &report.frames {
            assert!(f.transport_bytes.iter().all(|&b| b > 0), "{f:?}");
            assert!(f.first_content_ms.iter().all(|&ms| ms > 0.0), "{f:?}");
        }
    }

    /// The wire does not move: a healthy 3-cell, 4-frame run with one camera
    /// op, pinned on what the server counted off the sockets (recorded
    /// before the panel link was introduced; the same at 1, 2 and 8 render
    /// threads). Keys and deltas are all the pixel bytes there are.
    #[test]
    fn healthy_wall_wire_is_pinned() {
        let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(20.0))];
        let report = run_wall(&small_cfg(3), 4, 4, &ops).unwrap();
        assert_eq!(report.key_bytes, 11_205);
        assert_eq!(report.delta_bytes, 11_504);
        let transport: u64 = report.frames.iter().flat_map(|f| &f.transport_bytes).sum();
        assert_eq!(transport, report.key_bytes + report.delta_bytes);
        assert_eq!(report.resync_requests, 0);
        assert_eq!(report.delta_rejects, 0);
        assert!(report.incidents.is_empty(), "{:?}", report.incidents);
        assert_eq!(report.synced_final, vec![true; 3]);
    }

    #[test]
    fn fifteen_cell_wall_smoke() {
        // the paper's full 15-cell scenario, tiny sizes
        let cfg = WallWorkflowConfig { n_cells: 15, synth: (1, 2, 8, 16), cell_px: (32, 24) };
        let report = run_wall(&cfg, 2, 1, &[]).unwrap();
        assert_eq!(report.n_clients, 15);
        assert_eq!(report.client_frames, 15);
        assert_eq!(report.degraded_frames, 0);
    }

    #[test]
    fn server_mirror_mosaic_covers_all_panels() {
        use crate::layout::WallLayout;
        use crate::server::HyperwallServer;
        let cfg = WallWorkflowConfig { n_cells: 6, synth: (1, 2, 8, 16), cell_px: (64, 48) };
        let layout = WallLayout::small(2, 3, (64, 48));
        let mut server = HyperwallServer::bind(&cfg, 2).unwrap();
        let addr = server.addr().unwrap();
        let clients: Vec<_> = (0..6)
            .map(|id| {
                std::thread::spawn(move || {
                    crate::client::ClientNode::connect_v2(addr, id).unwrap().run()
                })
            })
            .collect();
        server.accept_clients(6).unwrap();
        server.assign_workflows(&cfg).unwrap();
        let mosaic = server.mirror_mosaic(&layout).unwrap();
        assert_eq!(mosaic.width(), 3 * 32);
        assert_eq!(mosaic.height(), 2 * 24);
        // every panel region has some non-background pixels
        for row in 0..2 {
            for col in 0..3 {
                let mut lit = 0;
                for y in 0..24 {
                    for x in 0..32 {
                        if mosaic.pixel(col * 32 + x, row * 24 + y).luminance() > 0.02 {
                            lit += 1;
                        }
                    }
                }
                assert!(lit > 10, "panel ({row},{col}) dark: {lit}");
            }
        }
        server.shutdown().unwrap();
        for c in clients {
            c.join().unwrap().unwrap();
        }
    }

    /// Lit pixels of the `(row, col)` panel region of a mosaic.
    fn lit_in_region(
        mosaic: &rvtk::render::Framebuffer,
        (row, col): (usize, usize),
        (w, h): (usize, usize),
    ) -> usize {
        (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .filter(|&(x, y)| mosaic.pixel(col * w + x, row * h + y).luminance() > 0.02)
            .count()
    }

    /// After one frame of a wall with one dead panel, a live panel's mosaic
    /// region is its assembled frame box-filtered, byte for byte, and that
    /// frame re-verifies; the degraded panel is still lit from its mirror
    /// cell, and has no frame to verify.
    #[test]
    fn mosaic_shows_the_frames_the_wall_shows() {
        use crate::frame_delta::box_filter;
        use crate::layout::WallLayout;
        use crate::protocol::{write_message, Message, PROTO_DELTA};
        let cfg = WallWorkflowConfig { n_cells: 4, synth: (1, 2, 8, 16), cell_px: (64, 48) };
        let layout = WallLayout::small(2, 2, cfg.cell_px);
        let mut server = HyperwallServer::bind_tuned(&cfg, 2, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // panels 0, 1 and 2 live, panel 3 a client that hangs up after its
        // hello
        let live: Vec<_> = [0, 1, 2]
            .map(|id| std::thread::spawn(move || ClientNode::connect_v2(addr, id).unwrap().run()))
            .into();
        let quitter = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_message(&mut s, &Message::Hello { client_id: 3, proto: PROTO_DELTA }).unwrap();
        });
        server.accept_clients(4).unwrap();
        quitter.join().unwrap();
        server.assign_workflows(&cfg).unwrap();
        let report = server.execute_frame(0).unwrap();
        assert_eq!(report.degraded, [false, false, false, true], "{:?}", server.incidents);
        assert!(report.mirror_ms > 0.0 && report.coverage[3] > 0.0, "{report:?}");
        assert_eq!(server.panels_synced(), [true, true, true, false]);
        for i in 0..3 {
            assert!(server.panel_frame_verified(i), "panel {i}");
            let assembled = server.panel_frame(i).unwrap();
            assert_eq!(assembled.len(), cfg.cell_px.0 * cfg.cell_px.1 * 4);
            assert!(assembled.iter().any(|&b| b != 0), "panel {i}");
        }
        assert!(!server.panel_frame_verified(3));
        assert!(server.panel_frame(3).is_none());

        let (mw, mh) = (32, 24);
        let mosaic = server.mirror_mosaic(&layout).unwrap();
        assert_eq!((mosaic.width(), mosaic.height()), (2 * mw, 2 * mh));
        let shown = mosaic.to_rgba8();
        for i in 0..4 {
            let (row, col) = layout.panel_of(i).unwrap();
            let lit = lit_in_region(&mosaic, (row, col), (mw, mh));
            assert!(lit > 10, "panel {i} dark: {lit}");
            if let Some(rgba) = server.panel_frame(i) {
                let want = box_filter(rgba, cfg.cell_px.0, cfg.cell_px.1, mw, mh);
                let region: Vec<u8> = (0..mh)
                    .flat_map(|y| {
                        let at = ((row * mh + y) * 2 * mw + col * mw) * 4;
                        shown[at..at + mw * 4].to_vec()
                    })
                    .collect();
                assert_eq!(region, want, "panel {i}");
            }
        }
        server.shutdown().unwrap();
        for c in live {
            assert_eq!(c.join().unwrap().unwrap(), 1);
        }
    }

    #[test]
    fn baseline_runs() {
        let cfg = small_cfg(2);
        let ms = run_single_node_baseline(&cfg, 1).unwrap();
        assert!(ms > 0.0);
    }

    /// The issue's acceptance scenario: one client crashes at frame 2 of 8
    /// (its first reconnect attempt is refused by the fault plan), yet the
    /// wall completes every frame — the dead panel is mirror-substituted
    /// while degraded and restored to Live once the client comes back.
    #[test]
    fn client_crash_mid_run_degrades_then_recovers() {
        let cfg = small_cfg(3);
        let plan = FaultPlan::none()
            .inject(1, Fault::DropAtFrame(2))
            .inject(1, Fault::RefuseReconnect(1));
        // one op broadcast before the crash, so recovery also exercises the
        // op-replay path (the reconnecting client must catch up)
        let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(10.0))];
        let report =
            run_wall_with_faults(&cfg, 4, 8, &ops, &plan, fast_tuning()).unwrap();
        // the wall never stopped: all 8 frames served, with coverage
        assert_eq!(report.frames.len(), 8);
        for f in &report.frames {
            assert!(f.coverage.iter().all(|&c| c > 0.0), "{f:?}");
        }
        // the crash frame was served from the mirror for the dead panel
        assert!(report.degraded_frames > 0, "{report:?}");
        assert!(report.frames[2].degraded[1], "{:?}", report.frames[2]);
        // healthy panels never degraded
        assert!(report.frames.iter().all(|f| !f.degraded[0] && !f.degraded[2]));
        // the victim recovered: exactly one reconnect, and the wall ended
        // with every panel live again
        assert_eq!(report.reconnects, 1, "{:?}", report.incidents);
        assert_eq!(report.final_states, vec![PanelState::Live; 3]);
        // the last frame was served fully live
        assert!(report.frames[7].degraded.iter().all(|&d| !d), "{:?}", report.incidents);
        // the two healthy clients rendered all 8 frames; the victim missed
        // at least the crash frame
        assert!(report.client_frames >= 16, "{report:?}");
        assert!(report.client_frames < 24, "{report:?}");
        assert!(report.degraded_fraction() > 0.0 && report.degraded_fraction() < 0.5);
        assert!(!report.incidents.is_empty());
        // the reconnected client's fresh streamer re-keyed its fresh
        // assembler: the run ends with every panel hash-verified
        assert_eq!(report.synced_final, vec![true; 3], "{:?}", report.incidents);
    }

    /// Panel 0's last committed frame after a 2-panel, `n_frames` run with
    /// `ops` broadcast before frame 1 under `plan`, and the number of
    /// reconnects; the run must end with every panel live and verified.
    fn slicer_panel_frame(plan: &FaultPlan, ops: &[ConfigOp], n_frames: u64) -> (Vec<u8>, u64) {
        let cfg = small_cfg(2);
        let mut server = HyperwallServer::bind_tuned(&cfg, 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        let clients: Vec<_> = (0..2)
            .map(|id| {
                let faults = plan.client(id);
                std::thread::spawn(move || {
                    ClientNode::connect_v2(addr, id).unwrap().run_with_faults(faults)
                })
            })
            .collect();
        server.accept_clients(2).unwrap();
        server.assign_workflows(&cfg).unwrap();
        for frame in 0..n_frames {
            if frame == 1 {
                for op in ops {
                    server.broadcast_op(op).unwrap();
                }
            }
            server.execute_frame(frame).unwrap();
        }
        assert_eq!(server.panel_states(), [PanelState::Live; 2], "{:?}", server.incidents);
        assert!(server.panel_frame_verified(0), "{:?}", server.incidents);
        let frame = server.panel_frame(0).unwrap().to_vec();
        let reconnects = server.reconnects_total();
        server.shutdown().unwrap();
        for c in clients {
            c.join().unwrap().unwrap();
        }
        (frame, reconnects)
    }

    /// The slicer panel drops at frame 2, after a slice move and a camera
    /// turn, and reconnects: the client rebuilds its cell, frames it and
    /// replays the op log, and the panel shows the frame a healthy wall
    /// shows, byte for byte.
    #[test]
    fn a_reconnected_panel_shows_the_view_of_a_healthy_one() {
        let ops = [
            ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 },
            ConfigOp::Camera(CameraOp::Azimuth(10.0)),
        ];
        let (healthy, none) = slicer_panel_frame(&FaultPlan::none(), &ops, 6);
        assert_eq!(none, 0);
        let plan = FaultPlan::none().inject(0, Fault::DropAtFrame(2));
        let (recovered, reconnects) = slicer_panel_frame(&plan, &ops, 6);
        assert_eq!(reconnects, 1);
        assert!(recovered == healthy, "the reconnected panel shows another view");
    }

    /// A panel whose client never comes back stays degraded for the rest of
    /// the run and the wall still completes (mirror keeps covering it).
    #[test]
    fn permanently_dead_panel_stays_degraded() {
        let cfg = small_cfg(2);
        let plan = FaultPlan::none()
            .inject(0, Fault::DropAtFrame(1))
            .inject(0, Fault::RefuseReconnect(u32::MAX));
        let mut tuning = fast_tuning();
        tuning.max_reconnect_attempts = 2;
        tuning.reconnect_poll = Duration::from_millis(30);
        let report = run_wall_with_faults(&cfg, 4, 5, &[], &plan, tuning).unwrap();
        assert_eq!(report.frames.len(), 5);
        assert_eq!(report.reconnects, 0);
        // frames 1..4 degraded for panel 0 → 4 mirror-served panel-frames
        assert_eq!(report.degraded_frames, 4, "{:?}", report.incidents);
        assert_eq!(report.final_states[0], PanelState::Degraded);
        assert_eq!(report.final_states[1], PanelState::Live);
        // the mirror kept the dead panel lit: rendered in frame 1, where the
        // panel degraded, and in every frame after it
        for f in &report.frames[1..] {
            assert!(f.degraded[0]);
            assert!(f.coverage[0] > 0.0);
            assert!(f.mirror_ms > 0.0, "{f:?}");
        }
        assert_eq!(report.frames[0].mirror_ms, 0.0);
        assert!(report.mirror_ms_per_degraded_frame() > 0.0);
        // a dead panel's assembler is dropped with its connection
        assert_eq!(report.synced_final, vec![false, true]);
    }

    /// A slow-loris client dribbles its `FrameDone` one byte at a time: the
    /// frame deadline trips even though the socket stays alive, the panel
    /// degrades, and the rest of the wall keeps animating.
    #[test]
    fn slow_loris_client_trips_deadline_and_degrades() {
        let cfg = small_cfg(2);
        let plan = FaultPlan::none().inject(1, Fault::SlowLoris(10));
        let mut tuning = fast_tuning();
        tuning.frame_deadline = Duration::from_millis(100);
        tuning.max_reconnect_attempts = 1;
        tuning.reconnect_poll = Duration::from_millis(10);
        let report = run_wall_with_faults(&cfg, 4, 3, &[], &plan, tuning).unwrap();
        assert!(report.deadline_misses >= 1, "{:?}", report.incidents);
        assert_eq!(report.final_states[1], PanelState::Degraded);
        // the healthy panel and the mirror kept every frame covered
        for f in &report.frames {
            assert!(!f.degraded[0]);
            assert!(f.coverage.iter().all(|&c| c > 0.0), "{f:?}");
        }
    }

    /// A client that cuts the connection halfway through a `FrameDone`
    /// leaves a torn frame on the wire; the server degrades the panel, the
    /// client redials, and the panel is restored to live.
    #[test]
    fn mid_request_disconnect_degrades_then_recovers() {
        let cfg = small_cfg(2);
        let plan = FaultPlan::none().inject(0, Fault::MidRequestDisconnect(1));
        let report = run_wall_with_faults(&cfg, 4, 6, &[], &plan, fast_tuning()).unwrap();
        assert_eq!(report.frames.len(), 6);
        assert!(report.frames[1].degraded[0], "{:?}", report.incidents);
        assert!(report.degraded_frames >= 1);
        // the victim came back and the run ended fully live
        assert_eq!(report.reconnects, 1, "{:?}", report.incidents);
        assert_eq!(report.final_states, vec![PanelState::Live; 2]);
        for f in &report.frames {
            assert!(f.coverage.iter().all(|&c| c > 0.0), "{f:?}");
        }
    }

    /// The issue's delta-transport acceptance scenario: a seeded storm of
    /// transport faults (corrupt payload, dropped delta, delayed delta)
    /// hits the wall mid-run. Corrupt deltas are rejected atomically (never
    /// partially applied), drops are detected at end of frame, and every
    /// affected panel converges back to a hash-verified frame via keyframe
    /// resync — with zero panel degradations, because transport faults are
    /// repaired below the liveness layer.
    #[test]
    fn seeded_delta_fault_storm_ends_with_every_panel_converged() {
        let cfg = small_cfg(3);
        let plan = crate::fault::FaultPlan::seeded_delta_storm(0xD1CE, 3, 10, 2);
        let report = run_wall_with_faults(&cfg, 4, 10, &[], &plan, fast_tuning()).unwrap();
        assert_eq!(report.frames.len(), 10);
        assert_eq!(report.client_frames, 30);
        // the storm was real: the server had to request keyframe resyncs
        // for both the corrupt and the dropped delta...
        assert!(report.resync_requests >= 2, "{report:?}");
        // ...and the corrupt one was rejected whole, not applied torn
        assert!(report.delta_rejects >= 1, "{report:?}");
        // transport faults never degraded a panel: the wall stayed live
        assert_eq!(report.degraded_frames, 0, "{:?}", report.incidents);
        assert_eq!(report.final_states, vec![PanelState::Live; 3]);
        // and every panel's assembled frame re-verified at the end
        assert_eq!(report.synced_final, vec![true; 3], "{:?}", report.incidents);
    }

    /// A corrupt delta shows no new photons: on the frame it hits, the
    /// victim's assembler rejects it and the panel reports no content
    /// latency, while its neighbours and its other frames do; the resync
    /// that follows brings it back.
    #[test]
    fn a_rejected_delta_reports_no_first_content() {
        let cfg = small_cfg(3);
        let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(20.0))];
        let plan = FaultPlan::none().inject(1, Fault::CorruptDeltaAt(2));
        let report = run_wall_with_faults(&cfg, 4, 5, &ops, &plan, fast_tuning()).unwrap();
        assert_eq!(report.delta_rejects, 1, "{report:?}");
        assert_eq!(report.resync_requests, 1, "{report:?}");
        assert_eq!(report.degraded_frames, 0, "{:?}", report.incidents);
        for f in &report.frames {
            for (i, &ms) in f.first_content_ms.iter().enumerate() {
                if (f.frame, i) == (2, 1) {
                    assert_eq!(ms, 0.0, "{f:?}");
                    assert!(f.transport_bytes[i] > 0, "the rejected delta was counted: {f:?}");
                } else {
                    assert!(ms > 0.0, "frame {} panel {i}: {f:?}", f.frame);
                }
            }
        }
        assert_eq!(report.synced_final, vec![true; 3], "{:?}", report.incidents);
    }

    /// A client that replies too slowly trips the frame deadline and is
    /// degraded (the miss is counted separately from disconnects).
    #[test]
    fn delayed_client_trips_frame_deadline() {
        let cfg = small_cfg(2);
        // client 1 replies ~300ms late to everything; with a 100ms frame
        // deadline the server degrades it on the first frame
        let plan = FaultPlan::none().inject(1, Fault::DelayReplies(300));
        let mut tuning = fast_tuning();
        tuning.frame_deadline = Duration::from_millis(100);
        tuning.max_reconnect_attempts = 1;
        tuning.reconnect_poll = Duration::from_millis(10);
        let report = run_wall_with_faults(&cfg, 4, 3, &[], &plan, tuning).unwrap();
        assert!(report.deadline_misses >= 1, "{:?}", report.incidents);
        assert!(report.degraded_frames >= 1);
        assert_eq!(report.final_states[1], PanelState::Degraded);
        // frame 0 for client 0 was honest and live
        assert!(!report.frames[0].degraded[0]);
    }
}
