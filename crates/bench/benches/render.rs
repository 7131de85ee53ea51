//! Tile-binned rendering bench: the three headline numbers of the tile /
//! delta-transport work, emitted as `BENCH_render.json`.
//!
//! 1. **Tile vs scanline frame time.** A multi-actor scene (surfaces,
//!    wireframes, point sprites spread across the screen) rendered by the
//!    tile-binned engine versus the frozen row-band scanline reference.
//!    With more than one hardware thread the tile engine must be >= 1.5x
//!    faster; on a single-core runner the ratio is still reported but the
//!    assert is skipped (`speedup_asserted: false` in the JSON).
//! 2. **Delta vs full-frame transport bytes.** A small-camera-motion
//!    script encoded through `FrameStreamer` as dirty-tile deltas versus
//!    the same frames as full keyframes; the delta stream must be >= 4x
//!    smaller per frame on the wire.
//! 3. **Interaction-to-photon.** A loopback wall run reporting the time
//!    from the Execute broadcast to the first pixel content arriving at
//!    the server (`FrameReport::first_content_ms`).
//!
//! The bench runs at the process's thread count (`RAYON_NUM_THREADS`, else
//! the hardware) and reports both the env setting and the effective pool
//! size. `RENDER_BENCH_SMOKE=1` shrinks sizes and reps for CI smoke runs.

use hyperwall::frame_delta::FrameStreamer;
use hyperwall::protocol::encode_frame;
use rvtk::color::Color;
use rvtk::math::Vec3;
use rvtk::poly_data::PolyData;
use rvtk::render::{scanline_ref, Actor, Framebuffer, Renderer, Representation};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("RENDER_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

// xorshift64* — deterministic scenes, no wall clock, no external crates
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 9_999.0
    }
}

/// A localized actor cluster: a little surface shell, wireframe ring or
/// point cloud around a random center. Many small clusters spread over the
/// screen is exactly the workload where binning wins — every scanline band
/// re-walks every line and re-tests every sprite, while a tile only sees
/// the primitives binned to it.
fn cluster(rng: &mut Rng, kind: usize) -> Actor {
    let c = Vec3::new(
        rng.unit() * 3.0 - 1.5,
        rng.unit() * 3.0 - 1.5,
        rng.unit() * 3.0 - 1.5,
    );
    let r = 0.1 + rng.unit() * 0.25;
    let mut pd = PolyData::new();
    let n = 14;
    for i in 0..n {
        let a = i as f64 / n as f64 * std::f64::consts::TAU;
        let wob = 0.7 + 0.3 * rng.unit();
        pd.add_point(Vec3::new(
            c.x + r * a.cos() * wob,
            c.y + r * a.sin() * wob,
            c.z + r * (rng.unit() - 0.5),
        ));
    }
    pd.add_point(c);
    match kind % 3 {
        0 => {
            for i in 0..n as u32 {
                pd.triangles.push([i, (i + 1) % n as u32, n as u32]);
            }
        }
        1 => {
            let ring: Vec<u32> = (0..n as u32).chain([0]).collect();
            pd.lines.push(ring);
            for i in 0..n as u32 {
                pd.lines.push(vec![i, n as u32]);
            }
        }
        _ => {}
    }
    pd.scalars = Some((0..=n).map(|i| i as f32 / n as f32).collect());
    let color = Color::rgb(
        0.3 + 0.7 * rng.unit() as f32,
        0.3 + 0.7 * rng.unit() as f32,
        0.3 + 0.7 * rng.unit() as f32,
    );
    let mut a = Actor::from_poly_data(pd).with_color(color);
    a.property.representation = match kind % 3 {
        0 => Representation::Surface,
        1 => Representation::Wireframe,
        _ => Representation::Points,
    };
    a.property.point_size = 3.0 + rng.unit() as f32 * 4.0;
    a.property.lighting = kind.is_multiple_of(3);
    a
}

fn scene(n_actors: usize) -> Renderer {
    let mut rng = Rng::new(0xBEEF_CAFE);
    let mut r = Renderer::new();
    for k in 0..n_actors {
        r.add_actor(cluster(&mut rng, k));
    }
    r.background = Color::rgb(0.04, 0.04, 0.1);
    r.reset_camera();
    r.camera.azimuth(25.0);
    r.camera.elevation(-15.0);
    r
}

/// A sinuous contour-style polyline sweeping across the domain, like one
/// isoline of a 2D climate field.
fn contour_actor(rng: &mut Rng, k: usize) -> Actor {
    let mut pd = PolyData::new();
    let n = 60usize;
    let y0 = rng.unit() * 3.0 - 1.5;
    let z0 = rng.unit() * 2.0 - 1.0;
    let amp = 0.3 + rng.unit() * 0.5;
    let freq = 4.0 + rng.unit() * 8.0;
    let phase = rng.unit() * std::f64::consts::TAU;
    for i in 0..n {
        let x = i as f64 / (n - 1) as f64 * 3.0 - 1.5;
        pd.add_point(Vec3::new(
            x,
            y0 + amp * (freq * x + phase).sin(),
            z0 + 0.1 * (2.0 * freq * x).cos(),
        ));
    }
    pd.lines.push((0..n as u32).collect());
    let t = (k % 7) as f32 / 6.0;
    let mut a = Actor::from_poly_data(pd)
        .with_color(Color::rgb(0.2 + 0.8 * t, 0.9 - 0.5 * t, 0.4 + 0.5 * t));
    a.property.representation = Representation::Wireframe;
    a
}

/// A scatter of station-marker point sprites, like an observation network
/// overlaid on the field. Wall-display glyph sizes: 10–24 px across.
fn markers_actor(rng: &mut Rng) -> Actor {
    let mut pd = PolyData::new();
    let n = 90usize;
    for _ in 0..n {
        pd.add_point(Vec3::new(
            rng.unit() * 3.0 - 1.5,
            rng.unit() * 3.0 - 1.5,
            rng.unit() * 2.0 - 1.0,
        ));
    }
    let mut a = Actor::from_poly_data(pd)
        .with_color(Color::rgb(0.9, 0.8, 0.2 + 0.6 * rng.unit() as f32));
    a.property.representation = Representation::Points;
    a.property.point_size = 10.0 + rng.unit() as f32 * 14.0;
    a
}

/// One sheet of vertical graticule / profile drop-lines: single-segment
/// lines spanning the full vertical extent of the domain, like the
/// longitude grid on a 3D box outline or drop-lines under a flight track.
/// Each projects to a near-vertical screen segment crossing every row
/// band — and, at the zoomed-in exploratory camera below, extending past
/// the viewport — which is the row-band engine's worst case twice over:
/// every band re-walks the entire segment (including its off-screen
/// extent, since the reference has no scissoring) to plot its own slice
/// of rows, while the tile engine bins only the visible crossings.
fn graticule_actor(rng: &mut Rng, k: usize) -> Actor {
    let mut pd = PolyData::new();
    let n_lines = 32usize;
    let z0 = (k % 5) as f64 * 0.45 - 0.9;
    for i in 0..n_lines {
        let x = i as f64 / (n_lines - 1) as f64 * 2.8 - 1.4 + (rng.unit() - 0.5) * 0.05;
        let tilt = (rng.unit() - 0.5) * 0.12;
        let a = pd.add_point(Vec3::new(x, -1.7, z0 + (rng.unit() - 0.5) * 0.1));
        let b = pd.add_point(Vec3::new(x + tilt, 1.7, z0 + (rng.unit() - 0.5) * 0.1));
        pd.lines.push(vec![a, b]);
    }
    let mut a = Actor::from_poly_data(pd).with_color(Color::rgb(0.5, 0.6, 0.7));
    a.property.representation = Representation::Wireframe;
    a
}

/// The perf scene: the shape of a DV3D exploratory frame — many contour
/// isolines, several station-marker layers, and a few lit surface patches.
/// Line- and sprite-heavy is exactly where row-banding loses: every band
/// re-walks every line and re-tests every sprite bbox, so the redundant
/// work grows with the worker count, while the tile engine visits each
/// line step and sprite pixel once regardless of the pool size.
fn perf_scene(
    n_contours: usize,
    n_marker_layers: usize,
    n_graticules: usize,
    n_surfaces: usize,
) -> Renderer {
    let mut rng = Rng::new(0xC0_FFEE);
    let mut r = Renderer::new();
    for k in 0..n_contours {
        r.add_actor(contour_actor(&mut rng, k));
    }
    for _ in 0..n_marker_layers {
        r.add_actor(markers_actor(&mut rng));
    }
    for k in 0..n_graticules {
        r.add_actor(graticule_actor(&mut rng, k));
    }
    for k in 0..n_surfaces {
        r.add_actor(cluster(&mut rng, 3 * k)); // kind 0: lit surfaces
    }
    r.background = Color::rgb(0.04, 0.04, 0.1);
    r.reset_camera();
    // A gentle oblique view: enough tilt to be a 3D exploratory frame,
    // while the graticule sheets still project to near-full-height
    // segments — the row-band engine's worst case, since every band
    // re-walks each full-height line for its own slice of rows.
    r.camera.azimuth(12.0);
    r.camera.elevation(-12.0);
    // Fill the viewport: `reset_camera` frames the bounding sphere with
    // generous margin, which would leave the graticule sheets spanning
    // only ~a third of the frame height.
    r.camera.zoom(3.0);
    r
}

fn main() {
    let smoke = smoke();
    let (w, h) = if smoke { (256, 192) } else { (480, 360) };
    let n_actors = 24;
    let reps = if smoke { 3 } else { 7 };

    let hardware_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rayon_env = std::env::var("RAYON_NUM_THREADS").ok();
    let rayon_threads = rayon::current_num_threads();

    // ---- 1. tile vs scanline frame time -------------------------------
    let (n_contours, n_markers, n_graticules, n_surfaces) =
        if smoke { (2, 1, 16, 1) } else { (6, 1, 48, 2) };
    let scene = perf_scene(n_contours, n_markers, n_graticules, n_surfaces);
    let n_actors_perf = n_contours + n_markers + n_graticules + n_surfaces;
    let mut fb_tile = Framebuffer::new(w, h);
    let mut fb_scan = Framebuffer::new(w, h);
    // warm both paths once, and hold them to bit-identity on RGBA8 output
    scene.render(&mut fb_tile);
    scanline_ref::render_scene_scanline(&scene, &mut fb_scan);
    assert_eq!(
        fb_tile.to_rgba8(),
        fb_scan.to_rgba8(),
        "tile and scanline engines diverged on the bench scene"
    );

    let mut tile_ms = Vec::new();
    let mut scan_ms = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        scene.render(&mut fb_tile);
        tile_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        scanline_ref::render_scene_scanline(&scene, &mut fb_scan);
        scan_ms.push(t.elapsed().as_secs_f64() * 1000.0);
    }
    let tile = median(tile_ms);
    let scan = median(scan_ms);
    let speedup = scan / tile;
    // the >= 1.5x claim is a parallel-speedup claim: only enforceable when
    // the pool actually has more than one worker on real cores
    let speedup_asserted = hardware_threads > 1 && rayon_threads > 1;
    if speedup_asserted {
        assert!(
            speedup >= 1.5,
            "tile engine only {speedup:.2}x over scanline at {rayon_threads} threads"
        );
    }

    // ---- 2. delta vs full-frame transport bytes -----------------------
    // a small-camera-motion interaction script with the cadence of real
    // exploratory use: the user nudges the orbit, then studies the result
    // for a few frames before the next nudge. Stills cost a near-empty
    // delta (every tile hash matches), and even the nudge frames ship only
    // the tiles whose RGBA8 content actually changed.
    let mut motion_scene = self::scene(n_actors);
    let (dw, dh) = if smoke { (160, 120) } else { (320, 240) };
    let script: &[f64] =
        &[0.012, 0.0, 0.0, 0.008, 0.0, 0.0, -0.012, 0.0, 0.0, 0.008, 0.0, 0.0];
    let mut delta_stream = FrameStreamer::new(dw, dh, 0); // deltas after frame 0
    let mut key_stream = FrameStreamer::new(dw, dh, 0);
    let mut fb = Framebuffer::new(dw, dh);
    let mut delta_bytes = Vec::new();
    let mut key_bytes = Vec::new();
    for (i, step) in script.iter().enumerate() {
        motion_scene.camera.azimuth(*step);
        motion_scene.render(&mut fb);
        let rgba = fb.to_rgba8();
        let frame = i as u64;
        let (msg, _) = delta_stream.encode(0, frame, &rgba).expect("delta encode");
        let wire = encode_frame(&msg).expect("frame bytes").len() as f64;
        key_stream.force_keyframe();
        let (kmsg, _) = key_stream.encode(0, frame, &rgba).expect("key encode");
        let kwire = encode_frame(&kmsg).expect("frame bytes").len() as f64;
        if i > 0 {
            // frame 0 is a keyframe on both streams; compare steady state
            delta_bytes.push(wire);
            key_bytes.push(kwire);
        }
        if std::env::var("RENDER_BENCH_DEBUG").is_ok() {
            println!("frame {i} step {step}: delta {wire} key {kwire}");
        }
    }
    let delta_per_frame = delta_bytes.iter().sum::<f64>() / delta_bytes.len() as f64;
    let key_per_frame = key_bytes.iter().sum::<f64>() / key_bytes.len() as f64;
    let delta_ratio = key_per_frame / delta_per_frame;
    assert!(
        delta_ratio >= 4.0,
        "delta transport only {delta_ratio:.2}x smaller than keyframes \
         ({delta_per_frame:.0} vs {key_per_frame:.0} bytes/frame)"
    );

    // ---- 3. interaction-to-photon on the wall harness -----------------
    use dv3d::interaction::{CameraOp, ConfigOp};
    use hyperwall::cluster::run_wall;
    use hyperwall::workflow::WallWorkflowConfig;
    let wall_cfg = WallWorkflowConfig {
        n_cells: 2,
        synth: (1, 2, 10, 20),
        cell_px: if smoke { (48, 36) } else { (96, 72) },
    };
    let wall_frames = if smoke { 2 } else { 4 };
    let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(15.0))];
    let report = run_wall(&wall_cfg, 4, wall_frames, &ops).expect("wall run");
    assert_eq!(report.resync_requests, 0, "healthy wall needed resyncs");
    let photon: Vec<f64> = report
        .frames
        .iter()
        .flat_map(|f| f.first_content_ms.iter().copied())
        .filter(|&ms| ms > 0.0)
        .collect();
    assert!(!photon.is_empty(), "no pixel content reached the server");
    let photon_mean = photon.iter().sum::<f64>() / photon.len() as f64;
    let photon_worst = photon.iter().cloned().fold(0.0f64, f64::max);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"render\",\n",
            "  \"smoke\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"rayon_threads\": {},\n",
            "  \"rayon_num_threads_env\": {},\n",
            "  \"frame_px\": [{}, {}],\n",
            "  \"n_actors\": {},\n",
            "  \"reps\": {},\n",
            "  \"scanline_frame_ms\": {:.3},\n",
            "  \"tile_frame_ms\": {:.3},\n",
            "  \"tile_speedup\": {:.3},\n",
            "  \"speedup_asserted\": {},\n",
            "  \"delta_px\": [{}, {}],\n",
            "  \"raw_frame_bytes\": {},\n",
            "  \"keyframe_bytes_per_frame\": {:.1},\n",
            "  \"delta_bytes_per_frame\": {:.1},\n",
            "  \"key_over_delta_ratio\": {:.2},\n",
            "  \"interaction_to_photon_mean_ms\": {:.3},\n",
            "  \"interaction_to_photon_worst_ms\": {:.3}\n",
            "}}\n"
        ),
        smoke,
        hardware_threads,
        rayon_threads,
        rayon_env.map(|v| format!("\"{v}\"")).unwrap_or_else(|| "null".into()),
        w,
        h,
        n_actors_perf,
        reps,
        scan,
        tile,
        speedup,
        speedup_asserted,
        dw,
        dh,
        dw * dh * 4,
        key_per_frame,
        delta_per_frame,
        delta_ratio,
        photon_mean,
        photon_worst
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_render.json");
    std::fs::write(path, &json).expect("write artifact");
    println!("{json}");
    println!(
        "bench render: tile {tile:.2} ms vs scanline {scan:.2} ms ({speedup:.2}x, \
         asserted: {speedup_asserted}), delta {delta_per_frame:.0} B/frame vs \
         key {key_per_frame:.0} B/frame ({delta_ratio:.1}x), \
         photon {photon_mean:.1} ms mean"
    );
}
