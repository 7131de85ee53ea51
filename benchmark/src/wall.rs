//! `wall_drag`: the §III.H hyperwall on loopback — production protocol,
//! real sockets, two display clients, a camera drag broadcast per frame.

use crate::stats;
use crate::trace::Tracer;
use crate::{err_text as e, time_for_another, Ctx, Outcome};
use dv3d::interaction::{CameraOp, ConfigOp};
use hyperwall::client::ClientNode;
use hyperwall::fault::FaultPlan;
use hyperwall::server::{HyperwallServer, WallTuning};
use hyperwall::workflow::WallWorkflowConfig;
use std::time::Instant;

const PANELS: usize = 2;
const MIRROR_DOWNSAMPLE: usize = 4;
const FRAMES: u64 = 60;
const DRAG_AZIMUTH_DEG: f64 = 2.0;

/// Server totals that must repeat exactly from session to session.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    wire_bytes: u64,
    resyncs: u64,
    delta_rejects: u64,
    degraded_frames: u64,
}

#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    assign_ms: Vec<f64>,
    first_ms: Vec<f64>,
    step_ms: Vec<f64>,
    broadcast_ms: Vec<f64>,
    round_trip_ms: Vec<f64>,
    client_render_ms: Vec<f64>,
    mirror_ms: Vec<f64>,
    first_content_ms: Vec<f64>,
    protocol_ms: Vec<f64>,
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Every panel live, synced and holding a frame that re-verifies.
fn frame_ok(server: &HyperwallServer, degraded: &[bool]) -> bool {
    !degraded.iter().any(|&d| d)
        && server.panels_synced().iter().all(|&s| s)
        && (0..PANELS).all(|i| server.panel_frame_verified(i))
}

fn session(
    cfg: &WallWorkflowConfig,
    tr: &mut Tracer,
    acc: &mut Samples,
    out: &mut Outcome,
) -> Result<Counts, String> {
    let t0 = Instant::now();
    let mut server =
        HyperwallServer::bind_tuned(cfg, MIRROR_DOWNSAMPLE, WallTuning::default()).map_err(e)?;
    let addr = server.addr().map_err(e)?;
    let clients: Vec<_> = (0..PANELS)
        .map(|id| {
            std::thread::spawn(move || {
                ClientNode::connect_v2(addr, id)?.run_with_faults(FaultPlan::none().client(id))
            })
        })
        .collect();
    server.accept_clients(PANELS).map_err(e)?;
    let t_assign = Instant::now();
    server.assign_workflows(cfg).map_err(e)?;
    acc.assign_ms.push(t_assign.elapsed().as_secs_f64() * 1e3);
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    let mut wire_bytes = 0u64;
    for frame in 0..=FRAMES {
        let t0 = Instant::now();
        let root = tr.begin(if frame == 0 { "first_frame" } else { "step" });
        if frame > 0 {
            let s = tr.begin("hyperwall.broadcast_op");
            let op = ConfigOp::Camera(CameraOp::Azimuth(DRAG_AZIMUTH_DEG));
            acc.broadcast_ms.push(server.broadcast_op(&op).map_err(e)?);
            tr.end(s);
        }
        let s = tr.begin("hyperwall.execute_frame");
        let report = server.execute_frame(frame).map_err(e)?;
        tr.end(s);
        tr.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        if !frame_ok(&server, &report.degraded) {
            out.failed += 1;
            out.failures.push(format!(
                "frame {frame}: a panel is degraded, unsynced or unverified"
            ));
        }
        wire_bytes += report.transport_bytes.iter().sum::<u64>();
        if frame == 0 {
            acc.first_ms.push(ms);
            continue;
        }
        acc.step_ms.push(ms);
        let slowest_render = max(&report.client_render_ms);
        acc.round_trip_ms.push(report.round_trip_ms);
        acc.client_render_ms.push(slowest_render);
        acc.mirror_ms.push(report.mirror_ms);
        acc.first_content_ms.push(max(&report.first_content_ms));
        acc.protocol_ms
            .push(report.round_trip_ms - slowest_render.max(report.mirror_ms));
    }
    server.shutdown().map_err(e)?;
    for c in clients {
        let rendered = c
            .join()
            .map_err(|_| "client thread panicked".to_string())?
            .map_err(e)?;
        if rendered != FRAMES + 1 {
            out.failed += 1;
            out.failures.push(format!(
                "a client rendered {rendered} frames, expected {}",
                FRAMES + 1
            ));
        }
    }
    Ok(Counts {
        wire_bytes,
        resyncs: server.resync_requests_total(),
        delta_rejects: server.delta_rejects_total(),
        degraded_frames: server.degraded_frames_total(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // The wall's data comes from `cdms.SynthSource` inside the shipped
    // workflow, which has no seed parameter: this workload is the same for
    // every seed.
    let cfg = WallWorkflowConfig {
        n_cells: PANELS,
        synth: (2, 4, 24, 48),
        cell_px: (256, 192),
    };
    let mut tr = Tracer::new();
    tr.enabled = ctx.trace;
    let mut out = Outcome::default();
    let mut acc = Samples::default();
    let mut counts: Option<Counts> = None;
    let clock = Instant::now();
    let mut sessions = 0u32;
    loop {
        tr.session = sessions;
        let c = session(&cfg, &mut tr, &mut acc, &mut out)?;
        sessions += 1;
        if *counts.get_or_insert_with(|| c.clone()) != c {
            out.failed += 1;
            out.failures
                .push(format!("session {sessions}: server totals {c:?} changed"));
        }
        if !time_for_another(clock, sessions, ctx.seconds) {
            break;
        }
    }
    let counts = counts.ok_or("no session ran")?;
    if counts.resyncs + counts.delta_rejects + counts.degraded_frames > 0 {
        out.failed += 1;
        out.failures.push(format!("wall was not clean: {counts:?}"));
    }
    out.shape = format!(
        "{PANELS} panels {}x{} px (slicer + volume), mirror 1/{MIRROR_DOWNSAMPLE}, synth {:?}, \
         {sessions} sessions x (1 + {FRAMES}) frames, closed loop, 1 user, loopback TCP",
        cfg.cell_px.0, cfg.cell_px.1, cfg.synth
    );
    if !ctx.trace {
        out.set_end_to_end(stats::median(&acc.setup_s), &acc.first_ms, &acc.step_ms);
        out.samples.push(("setup_s", acc.setup_s.len()));
        return Ok(out);
    }
    out.samples = vec![("sessions", sessions as usize)];
    let layer = vec![
        ("hyperwall.round_trip_ms", stats::median(&acc.round_trip_ms)),
        (
            "hyperwall.client_render_ms",
            stats::median(&acc.client_render_ms),
        ),
        ("hyperwall.mirror_ms", stats::median(&acc.mirror_ms)),
        ("hyperwall.broadcast_ms", stats::median(&acc.broadcast_ms)),
        (
            "hyperwall.first_content_ms",
            stats::median(&acc.first_content_ms),
        ),
        ("hyperwall.protocol_ms", stats::median(&acc.protocol_ms)),
        ("hyperwall.assign_ms", stats::median(&acc.assign_ms)),
        ("hyperwall.resyncs", counts.resyncs as f64),
        ("hyperwall.delta_rejects", counts.delta_rejects as f64),
        ("hyperwall.degraded_frames", counts.degraded_frames as f64),
        (
            "hyperwall.wire_bytes_per_frame",
            counts.wire_bytes as f64 / (FRAMES + 1) as f64,
        ),
        ("trace.unattributed_ratio", tr.unattributed_ratio("step")),
    ];
    out.set_per_layer(&acc.step_ms, layer);
    out.trace = Some(tr);
    Ok(out)
}
