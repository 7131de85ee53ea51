//! `scrub_seq`, `scrub_jump` and `drag_iso`: one user, one cell, one step at
//! a time through stream → translate → render → frame-delta wire → verified
//! assembled frame.

use crate::input::{self, FileInput};
use crate::stats::{self, SplitMix64};
use crate::trace::Tracer;
use crate::{err_text as e, time_for_another, Ctx, Outcome};
use cdms::{StreamReport, StreamingVariable};
use dv3d::animation::StreamingAnimation;
use dv3d::cell::Dv3dCell;
use dv3d::interaction::{CameraOp, ConfigOp};
use dv3d::plots::PlotSpec;
use dv3d::translation::{translate_scalar, TranslationOptions};
use hyperwall::frame_delta::{EncodedKind, FrameAssembler, FrameStreamer, DEFAULT_KEYFRAME_EVERY};
use hyperwall::protocol::{encode_frame, read_message};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScrubSeq,
    ScrubJump,
    DragIso,
}

const FRAME_PX: (usize, usize) = (480, 360);
const DRAG_STEPS: usize = 60;
const DRAG_AZIMUTH_DEG: f64 = 2.0;
/// Steps per scrub session whose data is re-derived and compared.
const SAMPLED_STEPS: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Step {
    Seek(usize),
    Drag,
}

/// The user's script after the first frame. The same script is replayed in
/// every session of a run, so sessions are replicates and their counters
/// must agree exactly.
fn script(kind: Kind, seed: u64) -> Vec<Step> {
    let nt = input::SHAPE.0;
    match kind {
        Kind::ScrubSeq => (1..nt).map(Step::Seek).collect(),
        Kind::DragIso => vec![Step::Drag; DRAG_STEPS],
        Kind::ScrubJump => {
            // Each jump lands at least three windows from the previous one
            // and at most at window N-3. The cache then holds neither the
            // target nor the two windows prefetched behind it, so every
            // step decodes exactly three windows whatever the seed: the
            // seed moves *where* the user jumps, not how much work a jump is.
            let mut rng = SplitMix64(seed ^ 0x6a75_6d70);
            let mut w = 0usize;
            (1..nt)
                .map(|_| {
                    let far: Vec<usize> = (0..=input::N_WINDOWS - 3)
                        .filter(|c| c.abs_diff(w) >= 3)
                        .collect();
                    w = far[rng.below(far.len())];
                    Step::Seek(w * input::WINDOW + rng.below(input::WINDOW))
                })
                .collect()
        }
    }
}

/// Sender and receiver halves of the frame-delta transport, joined by a
/// byte buffer instead of a socket.
struct Wire {
    streamer: FrameStreamer,
    assembler: FrameAssembler,
    frames: u64,
    keys: u64,
    deltas: u64,
    tiles: u64,
    bytes: u64,
}

/// Counters that must repeat exactly for a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    stream: StreamReport,
    keys: u64,
    deltas: u64,
    tiles: u64,
    wire_bytes: u64,
}

struct SessionOut {
    first_ms: f64,
    step_ms: Vec<f64>,
    counts: Counts,
    failures: Vec<String>,
}

/// render → RGBA8 → encode → wire bytes → decode → apply → verify.
/// Returns what was wrong with the received frame, if anything.
fn present(
    cell: &mut Dv3dCell,
    wire: &mut Wire,
    tr: &mut Tracer,
) -> Result<Option<String>, String> {
    let s = tr.begin("rvtk.render");
    let fb = cell.render(FRAME_PX.0, FRAME_PX.1).map_err(e)?;
    tr.end(s);
    let s = tr.begin("rvtk.to_rgba8");
    let rgba = fb.to_rgba8();
    tr.end(s);
    let s = tr.begin("hyperwall.encode");
    let (msg, kind) = wire.streamer.encode(0, wire.frames, &rgba).map_err(e)?;
    let bytes = encode_frame(&msg).map_err(e)?;
    tr.end(s);
    let s = tr.begin("hyperwall.apply");
    let received = read_message(&mut bytes.as_slice()).map_err(e)?;
    wire.assembler.apply(&received).map_err(e)?;
    let verified = wire.assembler.verify();
    tr.end(s);
    wire.frames += 1;
    wire.bytes += bytes.len() as u64;
    match kind {
        EncodedKind::Key => wire.keys += 1,
        EncodedKind::Delta { tiles } => {
            wire.deltas += 1;
            wire.tiles += tiles as u64;
        }
    }
    Ok(if !verified {
        Some("assembler did not verify".into())
    } else if wire.assembler.frame() != Some(rgba.as_slice()) {
        Some("assembled frame differs from the rendered one".into())
    } else {
        None
    })
}

/// Re-derives step `t` through an independent reader and compares: the
/// streamed slab against the in-memory dataset, and the image the cell
/// shows against the separately translated one, bit for bit.
fn check_data(
    t: usize,
    cell: &Dv3dCell,
    checker: &StreamingVariable,
    input: &FileInput,
    topts: &TranslationOptions,
) -> Result<Option<String>, String> {
    let slab = checker.time_slab_degraded(t).map_err(e)?;
    if slab.array != input.ta.time_slab(t).map_err(e)?.array {
        return Ok(Some(format!(
            "streamed slab {t} differs from the in-memory dataset"
        )));
    }
    let want = translate_scalar(&slab, topts).map_err(e)?;
    let got = cell.plot().image();
    let same = want.dims == got.dims
        && want.scalars.len() == got.scalars.len()
        && want
            .scalars
            .iter()
            .zip(&got.scalars)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    Ok((!same).then(|| format!("image shown at step {t} differs from the re-derived image")))
}

fn session(
    kind: Kind,
    input: &FileInput,
    script: &[Step],
    sampled: &[usize],
    checker: &StreamingVariable,
    tr: &mut Tracer,
) -> Result<SessionOut, String> {
    let topts = TranslationOptions::default();
    let mut wire = Wire {
        streamer: FrameStreamer::new(FRAME_PX.0, FRAME_PX.1, DEFAULT_KEYFRAME_EVERY),
        assembler: FrameAssembler::new(FRAME_PX.0, FRAME_PX.1),
        frames: 0,
        keys: 0,
        deltas: 0,
        tiles: 0,
        bytes: 0,
    };
    let mut failures = Vec::new();

    // first frame: open → verified frame
    let t0 = Instant::now();
    let root = tr.begin("first_frame");
    let s = tr.begin("cdms.open");
    let dataset = input::open(&input.path)?;
    let var = dataset.variable("ta").map_err(e)?;
    tr.end(s);
    let s = tr.begin("cdms.fetch");
    let slab = var.time_slab_degraded(0).map_err(e)?;
    tr.end(s);
    let s = tr.begin("dv3d.translate");
    let image = translate_scalar(&slab, &topts).map_err(e)?;
    tr.end(s);
    let s = tr.begin("dv3d.new_cell");
    let spec = match kind {
        Kind::DragIso => PlotSpec::isosurface(image),
        _ => PlotSpec::slicer(image),
    };
    let mut cell = Dv3dCell::try_new("ta", spec).map_err(e)?;
    tr.end(s);
    let bad_frame = present(&mut cell, &mut wire, tr)?;
    tr.end(root);
    let first_ms = t0.elapsed().as_secs_f64() * 1e3;
    failures.extend(bad_frame.map(|f| format!("first frame: {f}")));
    if let Some(f) = check_data(0, &cell, checker, input, &topts)? {
        failures.push(f);
    }

    let mut anim = StreamingAnimation::new(var.clone(), topts.clone()).map_err(e)?;
    let mut step_ms = Vec::with_capacity(script.len());
    for (i, step) in script.iter().enumerate() {
        let t0 = Instant::now();
        let root = tr.begin("step");
        match *step {
            // the traced run calls what `seek` composes, piece by piece
            Step::Seek(t) if tr.enabled => {
                let s = tr.begin("cdms.fetch");
                let slab = var.time_slab_degraded(t).map_err(e)?;
                tr.end(s);
                let s = tr.begin("dv3d.translate");
                let image = translate_scalar(&slab, &topts).map_err(e)?;
                tr.end(s);
                let s = tr.begin("dv3d.set_image");
                cell.plot_mut().set_image(image).map_err(e)?;
                tr.end(s);
            }
            Step::Seek(t) => {
                anim.seek(cell.plot_mut(), t).map_err(e)?;
            }
            Step::Drag => {
                let s = tr.begin("dv3d.configure");
                cell.configure(&ConfigOp::Camera(CameraOp::Azimuth(DRAG_AZIMUTH_DEG)))
                    .map_err(e)?;
                tr.end(s);
            }
        }
        let bad_frame = present(&mut cell, &mut wire, tr)?;
        tr.end(root);
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        failures.extend(bad_frame.map(|f| format!("step {i}: {f}")));
        if let (Step::Seek(t), true) = (*step, sampled.contains(&i)) {
            if let Some(f) = check_data(t, &cell, checker, input, &topts)? {
                failures.push(f);
            }
        }
    }
    let counts = Counts {
        stream: dataset.report(),
        keys: wire.keys,
        deltas: wire.deltas,
        tiles: wire.tiles,
        wire_bytes: wire.bytes,
    };
    Ok(SessionOut {
        first_ms,
        step_ms,
        counts,
        failures,
    })
}

pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let input = input::setup_file(ctx.seed, &ctx.out_dir)?;
    let script = script(kind, ctx.seed);
    let mut rng = SplitMix64(ctx.seed ^ 0x7361_6d70);
    let sampled: Vec<usize> = (0..SAMPLED_STEPS)
        .map(|_| rng.below(script.len()))
        .collect();
    let checker = input::open(&input.path)?.variable("ta").map_err(e)?;

    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    let (mut first_ms, mut step_ms, mut traced_step_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: Option<Counts> = None;
    let clock = Instant::now();
    let mut sessions = 0u32;
    loop {
        // a traced run alternates untraced and traced sessions, so the
        // tracing overhead is a same-process, same-input comparison
        tr.enabled = ctx.trace && sessions % 2 == 1;
        tr.session = sessions;
        let s = session(kind, &input, &script, &sampled, &checker, &mut tr)?;
        sessions += 1;
        out.attempted += 1 + s.step_ms.len() as u64;
        out.failed += s.failures.len() as u64;
        out.failures.extend(s.failures);
        match &counts {
            None => counts = Some(s.counts),
            Some(first) if *first != s.counts => {
                out.failed += 1;
                out.failures.push(format!(
                    "session {sessions}: counters {:?} != {first:?}",
                    s.counts
                ));
            }
            Some(_) => {}
        }
        if tr.enabled {
            traced_step_ms.extend(s.step_ms);
        } else {
            first_ms.push(s.first_ms);
            step_ms.extend(s.step_ms);
        }
        if !time_for_another(clock, sessions, ctx.seconds) {
            break;
        }
    }
    let counts = counts.ok_or("no session ran")?;
    out.shape = format!(
        "ta {:?} f32, window {}, {}x{} px, {} sessions x (1 + {}) frames, closed loop, 1 user; \
         reads served by the OS page cache, not the disk",
        input::SHAPE,
        input::WINDOW,
        FRAME_PX.0,
        FRAME_PX.1,
        sessions,
        script.len()
    );

    if !ctx.trace {
        out.set_end_to_end(input.setup_s, &first_ms, &step_ms);
        return Ok(out);
    }

    let med = |name: &str| stats::median(&tr.durations_ms(name));
    let per_s = |name: &str, units_per_call: f64| {
        let d = tr.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            units_per_call * d.len() as f64 / (stats::sum(&d) / 1e3)
        }
    };
    let r = &counts.stream;
    let lookups = (r.cache_hits + r.cache_misses).max(1) as f64;
    let frames_per_session = (1 + script.len()) as f64;
    out.samples = vec![("step (traced)", traced_step_ms.len())];
    let layer = vec![
        ("cdms.open_ms", med("cdms.open")),
        ("cdms.fetch_ms", med("cdms.fetch")),
        (
            "cdms.fetch_mb_per_s",
            per_s("cdms.fetch", input::slab_elements() as f64 * 4.0 / 1e6),
        ),
        ("cdms.chunk_reads", r.chunk_reads as f64),
        ("cdms.bytes_read", r.bytes_read as f64),
        ("cdms.cache_hits", r.cache_hits as f64),
        ("cdms.cache_misses", r.cache_misses as f64),
        ("cdms.evictions", r.evictions as f64),
        ("cdms.peak_cache_bytes", r.peak_cache_bytes as f64),
        ("cdms.hit_ratio", r.cache_hits as f64 / lookups),
        ("cdms.write_ms", input.write_ms),
        ("cdms.write_mb_per_s", input.write_mb_per_s),
        ("dv3d.translate_ms", med("dv3d.translate")),
        (
            "dv3d.translate_melem_per_s",
            per_s("dv3d.translate", input::slab_elements() as f64 / 1e6),
        ),
        ("dv3d.set_image_ms", med("dv3d.set_image")),
        ("rvtk.render_ms", med("rvtk.render")),
        (
            "rvtk.render_mpx_per_s",
            per_s("rvtk.render", (FRAME_PX.0 * FRAME_PX.1) as f64 / 1e6),
        ),
        ("rvtk.to_rgba8_ms", med("rvtk.to_rgba8")),
        ("hyperwall.encode_ms", med("hyperwall.encode")),
        ("hyperwall.apply_ms", med("hyperwall.apply")),
        (
            "hyperwall.delta_tiles_per_frame",
            counts.tiles as f64 / counts.deltas.max(1) as f64,
        ),
        ("hyperwall.key_frames", counts.keys as f64),
        ("hyperwall.delta_frames", counts.deltas as f64),
        (
            "hyperwall.wire_bytes_per_frame",
            counts.wire_bytes as f64 / frames_per_session,
        ),
        ("trace.unattributed_ratio", tr.unattributed_ratio("step")),
        (
            "trace.overhead_ratio",
            stats::median(&traced_step_ms) / stats::median(&step_ms) - 1.0,
        ),
    ];
    out.set_per_layer(&step_ms, layer);
    out.trace = Some(tr);
    Ok(out)
}
