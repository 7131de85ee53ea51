//! Bit-identity contracts for the tile-binned rasterizer.
//!
//! 1. **Tile binning is invisible in the bits.** For random scenes (mixed
//!    surface/wireframe/points actors, translucency, LUT coloring, random
//!    camera poses and framebuffer shapes) the tile-binned engine must
//!    produce color AND depth bit-identical to the frozen row-band
//!    scanline reference, at rayon pools of 1, 2, 3 and 8 workers
//!    (`rayon::with_threads`).
//! 2. **Golden multi-actor frame.** One deterministic frame mixing
//!    surface, wireframe and points actors is pinned by an FNV-1a hash
//!    of its RGBA8 bytes, so a
//!    kernel regression shows up as a hash diff even if identity with the
//!    (also-changed) reference still holds.
//! 3. **Identity and painter order at scale.** The random scenes carry at
//!    most 20 triangles per actor, so they never sort a long key array,
//!    never tie at size and never scatter a large CSR. One 172 740-triangle
//!    frame does: a gyroid-like isosurface drawn twice — two translucent
//!    actors sharing one mesh, so every triangle ties exactly with its
//!    twin on the painter key and the blend shows which of the two was
//!    drawn first — on a 480×360 screen whose bottom tile row is partial,
//!    at pools of 1, 2 and 8. Both engines share the front half
//!    (transform, shade, painter sort), so identity alone cannot see a
//!    wrong painter order: the frame is also pinned by an FNV-1a hash of
//!    its color and depth bits, recorded with the payload `sort_by`
//!    (stable, `zb.total_cmp(&za)` on the z-sums) that the key sort
//!    replaced.
//! 4. **One vertex array, many actors.** Triangles name their corners by
//!    index into a vertex array all actors of the frame share, each actor
//!    at its own base. Both engines resolve those indices the same way, so
//!    identity alone need not see a wrong base; an opaque scene without
//!    depth ties does, because its frame does not depend on the order of
//!    its actors while every base does. Three actors with different point counts —
//!    one with a vertex behind the camera, one drawn as a wireframe — in
//!    all six orders: tile ≡ scanline at pools 1, 2 and 8, and one frame.
//! 5. **An opaque frame needs no painter sort.** The tile engine sorts only
//!    a frame with a translucent surface; an opaque one it draws in mesh
//!    order, and a triangle fragment that ties the pixel's depth exactly
//!    wins when its painter key is below that of the fragment holding the
//!    pixel. The reference always sorts. Two opaque strips of one tilted
//!    plane, overlapping with different z-sums, in both actor orders — the
//!    farther-sum strip must show on every tied pixel, and at least 400
//!    pixels tie, so the rule is reached — and the gyroid twins of
//!    contract 3 made opaque (every triangle ties its twin): tile ≡
//!    scanline at pools 1, 2 and 8.
//! 6. **A triangle is boxed by the pixel centres it can reach.** The tile
//!    engine drops a triangle that reaches no centre and tests a small one
//!    only at centres within `s = 2⁻⁶` of its corners; the reference
//!    tests the whole `⌊min⌋ / ⌈max⌉` box of every triangle whose corners
//!    survive. On a screen where every corner lands exactly where the test
//!    puts it: corners at integers ± {0, 1e-12, s − 2⁻³⁰, s, s + 2⁻³⁰},
//!    slivers either side of the small-area bound 2⁻²⁰ and of the kernel's
//!    1e-12, extents either side of 62, triangles off the screen's edge,
//!    both windings, opaque and translucent: tile ≡ scanline at pools 1, 2
//!    and 8, and the dropped, the small-box and the scanline-box triangles
//!    are each reached.

use rvtk::color::Color;
use rvtk::math::Vec3;
use rvtk::poly_data::PolyData;
use rayon::with_threads;
use rvtk::render::{scanline_ref, Actor, Framebuffer, Renderer, Representation};

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

    /// Uniform-ish in [-range, range).
    fn coord(&mut self, range: f64) -> f64 {
        (self.next() % 2_000) as f64 / 1_000.0 * range - range
    }

    fn unit(&mut self) -> f32 {
        (self.next() % 1_000) as f32 / 999.0
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

fn random_actor(rng: &mut Rng) -> Actor {
    let mut pd = PolyData::new();
    let n_pts = 3 + rng.below(30);
    for _ in 0..n_pts {
        pd.add_point(Vec3::new(rng.coord(1.5), rng.coord(1.5), rng.coord(1.5)));
    }
    let n_tris = 1 + rng.below(20);
    for _ in 0..n_tris {
        let tri =
            [rng.below(n_pts) as u32, rng.below(n_pts) as u32, rng.below(n_pts) as u32];
        pd.triangles.push(tri);
    }
    if rng.chance(40) {
        let line: Vec<u32> = (0..2 + rng.below(5)).map(|_| rng.below(n_pts) as u32).collect();
        pd.lines.push(line);
    }
    if rng.chance(30) {
        pd.scalars = Some((0..n_pts).map(|_| rng.unit()).collect());
    }
    if rng.chance(30) {
        pd.normals = Some(
            (0..n_pts)
                .map(|_| {
                    Vec3::new(
                        rng.coord(1.0),
                        rng.coord(1.0),
                        rng.coord(1.0) + 0.01,
                    )
                    .normalized()
                })
                .collect(),
        );
    }
    let color = Color::rgb(rng.unit(), rng.unit(), rng.unit());
    let mut a = Actor::from_poly_data(pd).with_color(color);
    a.property.representation = match rng.below(3) {
        0 => Representation::Surface,
        1 => Representation::Wireframe,
        _ => Representation::Points,
    };
    a.property.point_size = 1.0 + rng.unit() * 7.0;
    a.property.lighting = rng.chance(50);
    if rng.chance(35) {
        a = a.with_opacity(0.2 + 0.6 * rng.unit()); // translucent: order-sensitive
    }
    if rng.chance(25) {
        use rvtk::lookup_table::{ColormapName, LookupTable};
        if a.poly_data.scalars.is_none() {
            let n = a.poly_data.points.len();
            std::sync::Arc::make_mut(&mut a.poly_data).scalars =
                Some((0..n).map(|i| i as f32 / n.max(1) as f32).collect());
        }
        a.property.lookup_table =
            Some(LookupTable::new(ColormapName::Jet, (0.0, 1.0)));
    }
    a
}

fn random_scene(rng: &mut Rng) -> Renderer {
    let mut r = Renderer::new();
    for _ in 0..1 + rng.below(4) {
        r.add_actor(random_actor(rng));
    }
    if rng.chance(30) {
        r.background = Color::rgb(rng.unit(), rng.unit(), rng.unit());
    }
    r.reset_camera();
    r.camera.azimuth(rng.coord(180.0));
    r.camera.elevation(rng.coord(80.0));
    if rng.chance(50) {
        r.camera.dolly(0.5 + 1.2 * rng.unit() as f64);
    }
    if rng.chance(25) {
        r.camera.parallel_projection = true;
        r.camera.parallel_scale = 1.0 + rng.unit() as f64 * 3.0;
    }
    r
}

fn bits(fb: &Framebuffer) -> Vec<u32> {
    let mut out: Vec<u32> = fb
        .colors()
        .iter()
        .flat_map(|c| [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()])
        .collect();
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            out.push(fb.depth_at(x, y).to_bits());
        }
    }
    out
}

#[test]
fn tile_engine_bit_identical_to_scanline_for_random_scenes() {
    let sizes = [(33usize, 31usize), (64, 48), (97, 80), (128, 64), (16, 16)];
    for seed in 0..40u64 {
        let mut rng = Rng::new(seed);
        let scene = random_scene(&mut rng);
        let (w, h) = sizes[rng.below(sizes.len())];
        // the reference is thread-count invariant; render it once
        let mut reference = Framebuffer::new(w, h);
        with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
        let ref_bits = bits(&reference);
        for threads in [1usize, 2, 3, 8] {
            let mut fb = Framebuffer::new(w, h);
            with_threads(threads, || scene.render(&mut fb));
            assert_eq!(
                bits(&fb),
                ref_bits,
                "tile vs scanline diverged: seed {seed}, {w}x{h}, {threads} threads"
            );
        }
    }
}

/// The pinned multi-actor scene: a lit surface, a translucent wireframe
/// and a point cloud, deterministically generated.
fn golden_scene() -> Renderer {
    let mut rng = Rng::new(0xD1_5EA5E);
    let mut r = Renderer::new();
    let mut surface = random_actor(&mut rng);
    surface.property.representation = Representation::Surface;
    surface.property.lighting = true;
    r.add_actor(surface);
    let mut wire = random_actor(&mut rng);
    wire.property.representation = Representation::Wireframe;
    r.add_actor(wire.with_opacity(0.6));
    let mut pts = random_actor(&mut rng);
    pts.property.representation = Representation::Points;
    pts.property.point_size = 5.0;
    r.add_actor(pts);
    r.background = Color::rgb(0.05, 0.05, 0.12);
    r.reset_camera();
    r.camera.azimuth(30.0);
    r.camera.elevation(-20.0);
    r
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn golden_multi_actor_frame_pinned() {
    let scene = golden_scene();
    let mut fb = Framebuffer::new(160, 120);
    with_threads(2, || scene.render(&mut fb));
    let hash = fnv1a(&fb.to_rgba8());
    // Pinned from the scanline engine before the tile rewrite; the tile
    // engine must reproduce it bit-for-bit (quantized to RGBA8 here).
    assert_eq!(hash, GOLDEN_FRAME_FNV, "golden frame drifted: got {hash:#018x}");
    // and the reference agrees, so the pin tracks both engines
    let mut reference = Framebuffer::new(160, 120);
    with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
    assert_eq!(fnv1a(&reference.to_rgba8()), GOLDEN_FRAME_FNV);
}

const GOLDEN_FRAME_FNV: u64 = 0x5489ac74984d3617;

/// The gyroid pin's mesh drawn twice: `opacity` for the lit, LUT-colored
/// actor and for its flat-colored twin.
fn gyroid_scene_at(opacity: [f32; 2]) -> (Renderer, usize) {
    use rvtk::lookup_table::{ColormapName, LookupTable};
    // triangle waves in place of sin/cos: plain IEEE arithmetic, so the
    // mesh does not depend on the platform's libm
    let wave = |t: f64| 4.0 * (t / 14.0 - (t / 14.0 + 0.5).floor()).abs() - 1.0;
    let field = rvtk::ImageData::from_fn([36, 36, 36], [1.0; 3], [0.0; 3], |x, y, z| {
        (wave(x) * wave(y + 3.5) + wave(y) * wave(z + 3.5) + wave(z) * wave(x + 3.5)) as f32
    });
    let mesh = rvtk::filters::isosurface(&field, 0.05).expect("gyroid isosurface");
    let triangles = mesh.triangles.len();
    let mut r = Renderer::new();
    // lit and LUT-colored, like a DV3D isosurface plot
    let mut lit = Actor::from_poly_data(mesh.clone()).with_opacity(opacity[0]);
    lit.property.lighting = true;
    lit.property.lookup_table = Some(LookupTable::new(ColormapName::Jet, (-1.0, 1.0)));
    r.add_actor(lit);
    // the twin: same vertices, so the same z-sums, in a flat color
    let mut flat =
        Actor::from_poly_data(mesh).with_color(Color::rgb(0.9, 0.4, 0.1)).with_opacity(opacity[1]);
    flat.property.lighting = false;
    r.add_actor(flat);
    r.background = Color::rgb(0.02, 0.03, 0.08);
    r.reset_camera();
    r.camera.azimuth(35.0);
    r.camera.elevation(20.0);
    (r, 2 * triangles)
}

fn gyroid_scene() -> (Renderer, usize) {
    gyroid_scene_at([0.55, 0.4])
}

#[test]
fn large_isosurface_frame_bit_identical_and_painter_order_pinned() {
    let (scene, triangles) = gyroid_scene();
    assert!(triangles >= 50_000, "only {triangles} triangles: not a scale test");
    let (w, h) = (480, 360);
    let mut reference = Framebuffer::new(w, h);
    with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
    let covered = reference.covered_pixels(scene.background);
    assert!(covered > w * h / 4, "the surface must fill the frame: {covered} px");
    let ref_bits = bits(&reference);
    let bytes: Vec<u8> = ref_bits.iter().flat_map(|word| word.to_le_bytes()).collect();
    let hash = fnv1a(&bytes);
    assert_eq!(hash, PAYLOAD_SORT_FRAME_FNV, "painter order drifted: got {hash:#018x}");
    for threads in [1usize, 2, 8] {
        let mut fb = Framebuffer::new(w, h);
        with_threads(threads, || scene.render(&mut fb));
        assert!(bits(&fb) == ref_bits, "tile vs scanline diverged at {threads} threads");
    }
}

const PAYLOAD_SORT_FRAME_FNV: u64 = 0x2ce36068b4048a46;

#[test]
fn large_opaque_isosurface_frame_bit_identical_without_the_sort() {
    // the same twins, opaque: the tile engine draws them in mesh order,
    // and every pixel where the two tie exactly must still show the lit
    // one, which painter order (and list order within a key) puts first
    let (scene, _) = gyroid_scene_at([1.0, 1.0]);
    let (w, h) = (480, 360);
    let mut reference = Framebuffer::new(w, h);
    with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
    let covered = reference.covered_pixels(scene.background);
    assert!(covered > w * h / 4, "the surface must fill the frame: {covered} px");
    let ref_bits = bits(&reference);
    for threads in [1usize, 2, 8] {
        let mut fb = Framebuffer::new(w, h);
        with_threads(threads, || scene.render(&mut fb));
        assert!(bits(&fb) == ref_bits, "tile vs scanline diverged at {threads} threads");
    }
}

/// One opaque, unlit rectangle on the plane z = y/4, spanning `y0..y1`
/// across x ∈ [−2, 2], as two triangles.
fn plane_strip(y0: f64, y1: f64, color: Color) -> Actor {
    let mut pd = PolyData::new();
    for (x, y) in [(-2.0, y0), (2.0, y0), (2.0, y1), (-2.0, y1)] {
        pd.add_point(Vec3::new(x, y, y / 4.0));
    }
    pd.triangles.push([0, 1, 2]);
    pd.triangles.push([0, 2, 3]);
    let mut a = Actor::from_poly_data(pd).with_color(color);
    a.property.lighting = false;
    a
}

#[test]
fn coplanar_opaque_actors_tie_to_the_painter_winner_in_either_order() {
    // two strips of one tilted plane overlapping on y ∈ [−0.75, 1]: every
    // triangle of `far` has a smaller z-sum — a farther painter key — than
    // every triangle of `near`, so where the two reach exactly the same
    // depth painter order leaves `far` there; drawn in mesh order as
    // [near, far], only the depth-tie rule keeps it. Corners, camera and
    // clip range are exact binary fractions, so every corner depth lies
    // exactly on the plane and most shared pixels tie.
    let far = plane_strip(-2.0, 1.0, Color::rgb(0.9, 0.2, 0.1));
    let near = plane_strip(-0.75, 2.25, Color::rgb(0.1, 0.3, 0.9));
    let (w, h) = (64, 64);
    let scene = |actors: &[&Actor]| {
        let mut r = Renderer::new();
        for a in actors {
            r.add_actor((*a).clone());
        }
        r.camera.position = Vec3::new(0.0, 0.0, 5.0);
        r.camera.focal_point = Vec3::ZERO;
        r.camera.parallel_projection = true;
        r.camera.parallel_scale = 2.0;
        r.camera.clipping_range = (1.0, 9.0);
        r
    };
    let alone = |a: &Actor| {
        let mut fb = Framebuffer::new(w, h);
        scene(&[a]).render(&mut fb);
        fb
    };
    let (far_alone, near_alone) = (alone(&far), alone(&near));
    let tied: Vec<(usize, usize)> = (0..h)
        .flat_map(|y| (0..w).map(move |x| (x, y)))
        .filter(|&(x, y)| {
            let (a, b) = (far_alone.depth_at(x, y), near_alone.depth_at(x, y));
            a.is_finite() && a == b
        })
        .collect();
    assert!(tied.len() >= 400, "only {} tied pixels: the rule is not reached", tied.len());
    for order in [[&far, &near], [&near, &far]] {
        let scene = scene(&order);
        let mut reference = Framebuffer::new(w, h);
        with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
        let ref_bits = bits(&reference);
        for threads in [1usize, 2, 8] {
            let mut fb = Framebuffer::new(w, h);
            with_threads(threads, || scene.render(&mut fb));
            assert!(bits(&fb) == ref_bits, "tile vs scanline diverged at {threads} threads");
        }
        for &(x, y) in &tied {
            assert_eq!(reference.pixel(x, y), far_alone.pixel(x, y), "pixel ({x}, {y})");
        }
    }
}

/// A fan of `n` triangles round the z axis at depth `z`, a little warped
/// so that no two of its pixels tie on depth.
fn fan(n: u32, radius: f64, z: f64) -> PolyData {
    let mut pd = PolyData::new();
    for i in 0..n {
        let a = f64::from(i) / f64::from(n) * std::f64::consts::TAU;
        pd.add_point(Vec3::new(radius * a.cos(), radius * a.sin(), z + 0.03 * f64::from(i)));
    }
    let hub = pd.add_point(Vec3::new(0.1, -0.05, z + 0.4));
    for i in 0..n {
        pd.triangles.push([i, (i + 1) % n, hub]);
    }
    pd
}

#[test]
fn actors_sharing_the_vertex_array_render_one_frame_in_any_order() {
    let flat = |pd: PolyData, color: Color| {
        let mut a = Actor::from_poly_data(pd).with_color(color);
        a.property.lighting = false;
        a
    };
    let big = flat(fan(11, 1.6, -1.0), Color::rgb(0.9, 0.2, 0.1));
    // a point behind the eye: the two triangles round it are dropped, its
    // slot in the shared array stays, unreferenced
    let mut pd = fan(4, 1.1, 0.0);
    pd.points[2] = Vec3::new(-0.4, 0.3, 50.0);
    let partly_behind = flat(pd, Color::rgb(0.1, 0.8, 0.3));
    let mut wire = flat(fan(3, 0.8, 1.0), Color::rgb(0.2, 0.3, 0.95));
    wire.property.representation = Representation::Wireframe;
    let actors = [big, partly_behind, wire];

    let (w, h) = (97, 80);
    let mut frames: Vec<Vec<u32>> = Vec::new();
    for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let mut scene = Renderer::new();
        for i in order {
            scene.add_actor(actors[i].clone());
        }
        scene.camera.position = Vec3::new(0.3, 0.2, 5.0);
        scene.camera.focal_point = Vec3::new(0.0, 0.0, 0.0);
        scene.camera.clipping_range = (0.1, 100.0);
        let mut reference = Framebuffer::new(w, h);
        with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
        let ref_bits = bits(&reference);
        for threads in [1usize, 2, 8] {
            let mut fb = Framebuffer::new(w, h);
            with_threads(threads, || scene.render(&mut fb));
            assert!(
                bits(&fb) == ref_bits,
                "tile vs scanline diverged: order {order:?}, {threads} threads"
            );
        }
        frames.push(ref_bits);
    }
    // every actor is on screen, in its own color
    let first = &frames[0];
    for a in &actors {
        let c = a.property.color;
        let px = [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()];
        let seen = first[..w * h * 4].chunks_exact(4).filter(|p| **p == px).count();
        assert!(seen > 20, "actor colored {c:?} covers {seen} px");
    }
    for (i, frame) in frames.iter().enumerate() {
        assert!(frame == first, "actor order {i} changed the frame");
    }
}

/// The sample margin `s = 2⁻⁶` of the small-triangle rule.
const S: f64 = 1.0 / 64.0;

/// Offsets from an integer either side of `s`.
const NUDGES: [f64; 5] = [0.0, 1e-12, S - 1.0 / 1_073_741_824.0, S, S + 1.0 / 1_073_741_824.0];

/// The world point `exact_scene` draws at screen `(px, py)`: the map
/// `(x, y) ↦ (16x + 32, 32 − 16y)` inverted, both ways exact for `px`,
/// `py` in [16, 128] — every product is by a power of two, and every sum
/// has a result on a coarser grid than its operands.
fn at_pixel(px: f64, py: f64, z: f64) -> Vec3 {
    Vec3::new(px / 16.0 - 2.0, 2.0 - py / 16.0, z)
}

/// The 65 × 65 screen of `at_pixel`: a parallel camera of half-height 2
/// on the z axis.
fn exact_scene(actors: Vec<Actor>) -> Renderer {
    let mut r = Renderer::new();
    for a in actors {
        r.add_actor(a);
    }
    r.camera.position = Vec3::new(0.0, 0.0, 5.0);
    r.camera.focal_point = Vec3::ZERO;
    r.camera.parallel_projection = true;
    r.camera.parallel_scale = 2.0;
    r.camera.clipping_range = (1.0, 9.0);
    r
}

type ScreenTri = [(f64, f64); 3];

/// An unlit actor of screen-space triangles, `z` rising a little from
/// triangle to triangle.
fn screen_actor(tris: &[ScreenTri], z: f64, color: Color) -> Actor {
    let mut pd = PolyData::new();
    for (k, corners) in tris.iter().enumerate() {
        let z = z + 1e-3 * k as f64;
        let ids = corners.map(|(px, py)| pd.add_point(at_pixel(px, py, z)));
        pd.triangles.push(ids);
    }
    let mut a = Actor::from_poly_data(pd).with_color(color);
    a.property.lighting = false;
    a
}

/// Which way the small-triangle rule takes a triangle, spelled in `f64`
/// on its exact screen corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Twice its area is below 1e-12: the kernel rejects it.
    Degenerate,
    /// Small, with no pixel centre within `s`: dropped.
    Unreached,
    /// Small: tested only at centres within `s` of its corners.
    Small,
    /// Extent within 62 but area below 2⁻²⁰: the scanline box.
    Sliver,
    /// Extent beyond 62: the scanline box.
    Wide,
}

fn rule([(ax, ay), (bx, by), (cx, cy)]: ScreenTri) -> Rule {
    let area = ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)).abs();
    let extent = |a: f64, b: f64, c: f64| a.max(b).max(c) - a.min(b).min(c);
    let reach =
        |a: f64, b: f64, c: f64| (a.min(b).min(c) - S).ceil() <= (a.max(b).max(c) + S).floor();
    if area < 1e-12 {
        Rule::Degenerate
    } else if extent(ax, bx, cx) > 62.0 || extent(ay, by, cy) > 62.0 {
        Rule::Wide
    } else if area < 2f64.powi(-20) {
        Rule::Sliver
    } else if reach(ax, bx, cx) && reach(ay, by, cy) {
        Rule::Small
    } else {
        Rule::Unreached
    }
}

/// Triangles of the adversarial scene, one list per layer, front to back.
fn adversarial_layers(rng: &mut Rng) -> [Vec<ScreenTri>; 3] {
    let pick = |rng: &mut Rng, from: &[f64]| from[rng.below(from.len())];
    let sign = |rng: &mut Rng| if rng.chance(50) { 1.0 } else { -1.0 };
    let nudge = |rng: &mut Rng| sign(rng) * pick(rng, &NUDGES);
    let wind =
        |rng: &mut Rng, [a, b, c]: ScreenTri| if rng.chance(50) { [a, b, c] } else { [a, c, b] };
    // front: one right triangle in each 3-pixel cell, its right angle a
    // nudge off the cell's pixel centre, legs of ≤ 1.5 px pointing either
    // way; the last column and row hang off the screen
    let mut tiny = Vec::new();
    for i in 0..16 {
        for j in 0..16 {
            let x = f64::from(19 + 3 * i) + nudge(rng);
            let y = f64::from(19 + 3 * j) + nudge(rng);
            let lx = sign(rng) * pick(rng, &[0.25, 0.5, 1.0, 1.5]);
            let ly = sign(rng) * 0.5;
            let corners = [(x, y), (x + lx, y), (x, y + ly)];
            tiny.push(wind(rng, corners));
        }
    }
    // middle: one sliver per row along a nudged pixel row, twice its area
    // either side of 1e-12 and of 2⁻²⁰, its length either side of 62
    let mut slivers = Vec::new();
    for r in 0..20 {
        let y = f64::from(20 + 2 * r) + nudge(rng);
        let x = f64::from(18 + 2 * (r % 8)) + nudge(rng);
        let len = pick(rng, &[20.0, 47.5, 62.0 - S, 62.0, 62.0 + S, 80.0]);
        let area = pick(rng, &[5e-13, 2e-12, 2f64.powi(-21), 2f64.powi(-19), 0.25]);
        let apex = (x + len * 0.375, y + sign(rng) * area / len);
        slivers.push(wind(rng, [(x, y), (x + len, y), apex]));
    }
    // back: wide and not-quite-wide triangles, corners nudged off pixel
    // centres, some reaching past the right and bottom edges
    let mut wide = Vec::new();
    for k in 0..12 {
        let (x, y) = (f64::from(16 + k), f64::from(16 + 2 * k));
        let ex = pick(rng, &[30.0, 61.0, 62.0, 63.0, 90.0]);
        let ey = pick(rng, &[40.0, 62.0, 63.0]);
        let a = (x + nudge(rng), y + nudge(rng));
        let b = (x + ex + nudge(rng), y);
        wide.push(wind(rng, [a, b, (x, y + ey)]));
    }
    [tiny, slivers, wide]
}

#[test]
fn triangles_boxed_by_reachable_centres_render_as_the_unculled_reference() {
    let (w, h) = (65, 65);
    let colors = [Color::rgb(0.9, 0.2, 0.1), Color::rgb(0.1, 0.8, 0.3), Color::rgb(0.2, 0.3, 0.95)];
    let mut seen: Vec<Rule> = Vec::new();
    for seed in 0..6u64 {
        let mut rng = Rng::new(0xB0C5 + seed);
        let layers = adversarial_layers(&mut rng);
        for tri in layers.iter().flatten() {
            for &(px, py) in tri {
                // the corner is where the test put it, wherever it is in range
                let p = at_pixel(px, py, 0.0);
                if (16.0..=128.0).contains(&px) && (16.0..=128.0).contains(&py) {
                    let screen = ((p.x / 2.0 + 1.0) / 2.0 * 64.0, (1.0 - p.y / 2.0) / 2.0 * 64.0);
                    assert_eq!(screen, (px, py));
                }
            }
            seen.push(rule(*tri));
        }
        for front_opacity in [1.0, 0.6] {
            let actors = layers
                .iter()
                .zip(colors)
                .zip([0.5, 0.0, -0.5])
                .map(|((tris, color), z)| screen_actor(tris, z, color))
                .enumerate()
                .map(|(i, a)| if i == 0 { a.with_opacity(front_opacity) } else { a })
                .collect();
            let scene = exact_scene(actors);
            let mut reference = Framebuffer::new(w, h);
            with_threads(2, || scanline_ref::render_scene_scanline(&scene, &mut reference));
            let ref_bits = bits(&reference);
            for threads in [1usize, 2, 8] {
                let mut fb = Framebuffer::new(w, h);
                with_threads(threads, || scene.render(&mut fb));
                assert!(
                    bits(&fb) == ref_bits,
                    "tile vs scanline diverged: seed {seed}, opacity {front_opacity}, \
                     {threads} threads"
                );
            }
        }
    }
    for want in [Rule::Degenerate, Rule::Unreached, Rule::Small, Rule::Sliver, Rule::Wide] {
        let n = seen.iter().filter(|&&r| r == want).count();
        assert!(n >= 10, "{want:?} reached by only {n} triangles");
    }
}
