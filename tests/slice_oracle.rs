//! The slice-quad oracle. A Slicer plane is drawn as one textured quad
//! (`rvtk::render::ImageSlice`); it used to be a mesh of two triangles per
//! grid cell, pseudocoloured through the lookup table and drawn by the
//! triangle kernel. That mesh builder is kept here as the reference, and
//! every case renders one scene both ways.
//!
//! Bit-identity is not available: the quad interpolates its texels
//! perspective-correctly across a cell's triangle, the mesh interpolated
//! the same corner colours affinely in screen space. The bounds, stated
//! before they were measured:
//!
//! - coverage is identical except on silhouette pixels (a pixel whose 3×3
//!   neighbourhood one plane's mesh covers only in part) and
//!   plane-intersection pixels (a neighbourhood whose nearest plane
//!   changes);
//! - on every other pixel the RGBA8 frames differ by at most 2 levels per
//!   channel, and by at most 1 on the benchmark's own view (its 180 × 90 × 8
//!   grid at 480 × 360 from the slicer cell's reset camera);
//! - where both draw a plane, their depths agree to 1e-5 in NDC, so a
//!   volume composited behind it stops where it stopped.
//!
//! A camera inside the volume puts a plane across the eye plane. The mesh
//! dropped every triangle with a corner at `w ≤ 1e-9`; the quad clips per
//! pixel instead, and draws the plane wherever it lies in front of the eye
//! and inside the clip range. `camera_inside_the_volume_clips_per_pixel`
//! bounds what that adds.

use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::dv3d::interaction::{Axis3, ConfigOp};
use uvcdat::dv3d::plots::{CompositePlot, Plot, PlotSpec, SlicerPlot, VolumePlot};
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};
use uvcdat::rvtk::filters::SliceAxis;
use uvcdat::rvtk::math::Vec3;
use uvcdat::rvtk::render::{Actor, Framebuffer, ImageSlice, Renderer};
use uvcdat::rvtk::{Color, ImageData, LookupTable, PolyData};

/// The mesh `SlicerPlot` drew before the quad: `rvtk::filters::slice_axis`
/// as it stood — the plane `axis = slice_index` as a quad mesh (two
/// triangles per cell, split along the `p00–p11` diagonal) with per-point
/// scalars copied from the volume.
fn slice_axis(img: &ImageData, axis: SliceAxis, slice_index: usize) -> PolyData {
    let ai = axis.index();
    assert!(slice_index < img.dims[ai], "slice index {slice_index} out of range");
    // The two in-plane axes, in an order that keeps +normal consistent.
    let (u_ax, v_ax) = match axis {
        SliceAxis::X => (1, 2),
        SliceAxis::Y => (0, 2),
        SliceAxis::Z => (0, 1),
    };
    let (nu, nv) = (img.dims[u_ax], img.dims[v_ax]);
    let mut out = PolyData::new();
    let mut scalars = Vec::with_capacity(nu * nv);
    for v in 0..nv {
        for u in 0..nu {
            let mut ijk = [0usize; 3];
            ijk[ai] = slice_index;
            ijk[u_ax] = u;
            ijk[v_ax] = v;
            out.add_point(img.point(ijk[0], ijk[1], ijk[2]));
            scalars.push(img.scalar(ijk[0], ijk[1], ijk[2]));
        }
    }
    for v in 0..nv.saturating_sub(1) {
        for u in 0..nu.saturating_sub(1) {
            let p00 = (v * nu + u) as u32;
            let p10 = p00 + 1;
            let p01 = p00 + nu as u32;
            let p11 = p01 + 1;
            out.triangles.push([p00, p10, p11]);
            out.triangles.push([p00, p11, p01]);
        }
    }
    out.scalars = Some(scalars);
    // flat normals perpendicular to the plane
    let mut n = Vec3::ZERO;
    match axis {
        SliceAxis::X => n.x = 1.0,
        SliceAxis::Y => n.y = 1.0,
        SliceAxis::Z => n.z = 1.0,
    }
    out.normals = Some(vec![n; out.points.len()]);
    out
}

/// The actor `SlicerPlot::populate` added for one plane.
fn mesh_actor(img: &ImageData, axis: SliceAxis, index: usize, lut: &LookupTable) -> Actor {
    let mut actor =
        Actor::from_poly_data(slice_axis(img, axis, index)).with_lookup_table(lut.clone());
    actor.property.lighting = false;
    actor
}

/// A scene drawn with quads, and the planes it holds — what the mesh
/// reference draws in their place.
struct Scene {
    quads: Renderer,
    img: ImageData,
    lut: LookupTable,
    planes: Vec<(SliceAxis, usize)>,
}

impl Scene {
    /// The scene `plot` populates, framed by the reset camera, then turned
    /// by `azimuth` and `elevation` degrees. `slicer` holds the state of
    /// the slicer drawing the planes: the plot itself, or its member.
    fn of(plot: &dyn Plot, slicer: &SlicerPlot, (azimuth, elevation): (f64, f64)) -> Scene {
        let mut quads = Renderer::new();
        plot.populate(&mut quads).unwrap();
        let planes: Vec<(SliceAxis, usize)> = [SliceAxis::X, SliceAxis::Y, SliceAxis::Z]
            .into_iter()
            .zip(slicer.slice_index)
            .zip(slicer.plane_enabled)
            .filter_map(|(plane, on)| on.then_some(plane))
            .collect();
        let (img, lut) = (slicer.image().clone(), slicer.editor().lookup_table());
        let want: Vec<ImageSlice> = planes
            .iter()
            .map(|&(axis, index)| ImageSlice::from_image(&img, axis, index, lut.clone()).unwrap())
            .collect();
        assert!(quads.image_slices() == want.as_slice(), "the plot's quads are not its planes");
        quads.reset_camera();
        quads.camera.azimuth(azimuth);
        quads.camera.elevation(elevation);
        Scene { quads, img, lut, planes }
    }

    /// The scene with each quad replaced by its mesh, added ahead of the
    /// scene's own actors as `populate` added it.
    fn mesh(&self) -> Renderer {
        let mut r = self.blank();
        for &(axis, index) in &self.planes {
            r.add_actor(mesh_actor(&self.img, axis, index, &self.lut));
        }
        for a in self.quads.actors() {
            r.add_actor(a.clone());
        }
        for v in self.quads.volumes() {
            r.add_volume(v.clone());
        }
        assert_eq!(r.scene_bounds(), self.quads.scene_bounds(), "reset_camera would move");
        r
    }

    /// An empty scene under this one's camera and background.
    fn blank(&self) -> Renderer {
        let mut r = Renderer::new();
        r.camera = self.quads.camera.clone();
        r.background = self.quads.background;
        r
    }
}

/// A rendered frame: RGBA8 bytes and depths, row-major.
struct Frame {
    width: usize,
    height: usize,
    rgba: Vec<u8>,
    depth: Vec<f32>,
}

impl Frame {
    fn of(r: &Renderer, (width, height): (usize, usize)) -> Frame {
        let mut fb = Framebuffer::new(width, height);
        r.render(&mut fb);
        let depth = (0..height).flat_map(|y| (0..width).map(move |x| (x, y)));
        let depth = depth.map(|(x, y)| fb.depth_at(x, y)).collect();
        Frame { width, height, rgba: fb.to_rgba8(), depth }
    }

    fn covered(&self, i: usize) -> bool {
        self.depth[i].is_finite()
    }

    fn pixel(&self, i: usize) -> &[u8] {
        &self.rgba[i * 4..i * 4 + 4]
    }

    /// Flat indices of the 3×3 neighbourhood of pixel `i`, clipped.
    fn around(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (x, y) = ((i % self.width) as i64, (i / self.width) as i64);
        (-1..=1).flat_map(move |dy| (-1..=1).map(move |dx| (x + dx, y + dy))).filter_map(
            move |(x, y)| {
                let inside = (0..self.width as i64).contains(&x) && (0..self.height as i64).contains(&y);
                inside.then(|| y as usize * self.width + x as usize)
            },
        )
    }
}

/// What one comparison saw.
#[derive(Default)]
struct Seen {
    /// Pixels the plane covers in the mesh frame.
    covered: usize,
    /// Silhouette and plane-intersection pixels, held to no bound.
    exempt: usize,
    /// Exempt pixels the two frames cover differently.
    exempt_coverage_diffs: usize,
    /// The largest channel difference outside the exempt pixels, and how
    /// many pixels differ by any level there.
    max_level: u8,
    differing: usize,
    /// The largest depth difference where both draw the plane.
    max_depth: f32,
    /// Pixels off the exempt ones that the quad covers and the mesh does
    /// not.
    added: Vec<usize>,
}

/// Renders `scene` both ways at `size` and holds the quad frame to the
/// mesh frame off the silhouette and plane-intersection pixels: the quad
/// covers every pixel the mesh covers, at most `bound` levels per channel
/// away, depth within 1e-5. The pixels it covers beyond the mesh are
/// returned, not judged.
fn compare(name: &str, scene: &Scene, size: (usize, usize), bound: u8) -> Seen {
    let (quad, mesh) = (Frame::of(&scene.quads, size), Frame::of(&scene.mesh(), size));
    // each plane's own mesh coverage and depth: silhouettes and owners
    let alone: Vec<Frame> = scene
        .planes
        .iter()
        .map(|&(axis, index)| {
            let mut r = scene.blank();
            r.add_actor(mesh_actor(&scene.img, axis, index, &scene.lut));
            Frame::of(&r, size)
        })
        .collect();
    let owner = |i: usize| {
        let nearest = alone.iter().enumerate().filter(|(_, f)| f.covered(i));
        nearest.min_by(|a, b| a.1.depth[i].total_cmp(&b.1.depth[i])).map(|(p, _)| p)
    };
    let mut seen = Seen::default();
    for i in 0..size.0 * size.1 {
        let silhouette = alone.iter().any(|f| {
            let n = f.around(i).filter(|&j| f.covered(j)).count();
            n > 0 && n < f.around(i).count()
        });
        let crossing = quad.around(i).any(|j| owner(j) != owner(i));
        let both = quad.covered(i) && mesh.covered(i);
        seen.covered += usize::from(alone.iter().any(|f| f.covered(i)));
        if silhouette || crossing {
            seen.exempt += 1;
            seen.exempt_coverage_diffs += usize::from(quad.covered(i) != mesh.covered(i));
            continue;
        }
        let (x, y) = (i % size.0, i / size.0);
        assert!(quad.covered(i) || !mesh.covered(i), "{name}: the quad misses ({x}, {y})");
        if quad.covered(i) && !mesh.covered(i) {
            seen.added.push(i);
            continue;
        }
        let level = quad.pixel(i).iter().zip(mesh.pixel(i)).map(|(a, b)| a.abs_diff(*b)).max();
        let level = level.unwrap_or(0);
        assert!(
            level <= bound,
            "{name}: ({x}, {y}) is {:?} with the quad, {:?} with the mesh",
            quad.pixel(i),
            mesh.pixel(i)
        );
        seen.max_level = seen.max_level.max(level);
        seen.differing += usize::from(level > 0);
        if both {
            let dz = (quad.depth[i] - mesh.depth[i]).abs();
            assert!(dz <= 1e-5, "{name}: depth at ({x}, {y}) differs by {dz}");
            seen.max_depth = seen.max_depth.max(dz);
        }
    }
    assert!(seen.covered > 0, "{name}: the plane is off screen");
    println!(
        "{name}: {} px covered, {} exempt ({} covered differently), {} px off by at most {} \
         levels, depth within {:e}, {} px added",
        seen.covered,
        seen.exempt,
        seen.exempt_coverage_diffs,
        seen.differing,
        seen.max_level,
        seen.max_depth,
        seen.added.len()
    );
    seen
}

/// [`compare`], with the coverage identical off the exempt pixels.
fn check(name: &str, scene: &Scene, size: (usize, usize), bound: u8) {
    let added = compare(name, scene, size, bound).added.len();
    assert_eq!(added, 0, "{name}: the quad covers {added} px the mesh does not");
}

/// The reset view, then azimuth 0 / 20 / 60° with elevation.
/// The reset view (the eye 35° above the z plane), azimuth 0 / 20 / 60°
/// with the eye raised to 65° (`elevation(-30)`), and the same azimuths
/// with it lowered to 5° (`elevation(30)`), where a cell's perspective is
/// strongest.
const VIEWS: [(f64, f64); 7] = [
    (0.0, 0.0),
    (0.0, -30.0),
    (20.0, -30.0),
    (60.0, -30.0),
    (0.0, 30.0),
    (20.0, 30.0),
    (60.0, 30.0),
];

/// Levels per channel a view may differ by: 2, and 3 at the grazing views.
/// The gap between perspective-correct and screen-affine weights grows
/// with the depth ratio across a cell; at 5° the NaN fixture, whose NaN
/// corners put the steepest colour ramp a plane has across single cells,
/// measured 3.
fn bound((_, elevation): (f64, f64)) -> u8 {
    if elevation > 0.0 {
        3
    } else {
        2
    }
}

/// The slicer plot's test fixture.
fn fixture() -> ImageData {
    ImageData::from_fn([8, 8, 6], [1.0; 3], [0.0; 3], |x, y, z| (x + y + z) as f32)
}

fn slicer(img: ImageData) -> SlicerPlot {
    SlicerPlot::new(img, None).unwrap()
}

fn all_planes(mut plot: SlicerPlot) -> SlicerPlot {
    for axis in [Axis3::X, Axis3::Y] {
        plot.configure(&ConfigOp::TogglePlane { axis }).unwrap();
    }
    plot
}

fn check_slicer(name: &str, plot: &SlicerPlot, size: (usize, usize)) {
    for view in VIEWS {
        check(&format!("{name} {view:?}"), &Scene::of(plot, plot, view), size, bound(view));
    }
}

#[test]
fn slicer_fixture_one_and_three_planes() {
    check_slicer("fixture", &slicer(fixture()), (64, 64));
    check_slicer("fixture, 3 planes", &all_planes(slicer(fixture())), (64, 64));
}

/// The wall's 48 × 24 × 4 field at the client's 256 × 192 and the mirror's
/// quarter size.
#[test]
fn wall_field_at_client_and_mirror_sizes() {
    let ds = SynthesisSpec::new(1, 4, 24, 48).build();
    let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
    let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
    assert_eq!(img.dims, [48, 24, 4]);
    for size in [(256, 192), (64, 48)] {
        check_slicer(&format!("wall {size:?}"), &slicer(img.clone()), size);
        let three = all_planes(slicer(img.clone()));
        check_slicer(&format!("wall {size:?}, 3 planes"), &three, size);
    }
}

/// The benchmark's grid and frame: the z plane at k = 4 of `ta` at t = 0.
#[test]
fn benchmark_grid_within_one_level_at_the_benchmark_view() {
    let ds = SynthesisSpec::new(1, 8, 90, 180).seed(1).build();
    let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
    let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
    assert_eq!(img.dims, [180, 90, 8]);
    let plot = slicer(img);
    assert_eq!(plot.slice_index[2], 4);
    for view in VIEWS {
        let bound = if view == (0.0, 0.0) { 1 } else { bound(view) };
        check(&format!("benchmark {view:?}"), &Scene::of(&plot, &plot, view), (480, 360), bound);
    }
}

/// The Hovmöller slicer is a slicer over a time-as-z volume.
#[test]
fn hovmoller_slicer() {
    let img = ImageData::from_fn([24, 8, 10], [1.0, 1.0, 2.0], [0.0; 3], |x, _, t| {
        (0.5 * (x - 2.0 * t)).sin() as f32
    });
    let plot = PlotSpec::hovmoller_slicer(img.clone()).build().unwrap();
    for view in VIEWS {
        let scene = Scene::of(plot.as_ref(), &slicer(img.clone()), view);
        check(&format!("hovmoller {view:?}"), &scene, (96, 72), bound(view));
    }
}

/// The volume ray-caster stops at the depth the plane wrote: its samples
/// behind the quad are the ones it took behind the mesh.
#[test]
fn combined_volume_and_slicer() {
    let ball = ImageData::from_fn([12, 12, 12], [1.0; 3], [0.0; 3], |x, y, z| {
        let d2 = (x - 5.5).powi(2) + (y - 5.5).powi(2) + (z - 5.5).powi(2);
        (40.0 - d2 as f32).max(0.0)
    });
    let member = slicer(ball.clone());
    let plot = CompositePlot::new(vec![
        Box::new(VolumePlot::new(ball).unwrap()),
        Box::new(member.clone()),
    ])
    .unwrap();
    for view in VIEWS {
        let scene = Scene::of(&plot, &member, view);
        // the volume is in the frame: without it the quad frame changes
        let mut plane_only = scene.blank();
        member.populate(&mut plane_only).unwrap();
        let (with, without) = (Frame::of(&scene.quads, (96, 72)), Frame::of(&plane_only, (96, 72)));
        assert!(with.rgba != without.rgba, "{view:?}: the volume drew nothing");
        check(&format!("volume + slicer {view:?}"), &scene, (96, 72), bound(view));
    }
}

#[test]
fn nan_cells_keep_the_tables_nan_colour() {
    let mut img = fixture();
    for j in 2..6 {
        for i in 1..5 {
            let at = img.index(i, j, 3);
            img.scalars[at] = f32::NAN;
        }
    }
    let plot = slicer(img);
    let nan = plot.editor().lookup_table().nan_color.to_u8();
    for view in VIEWS {
        let scene = Scene::of(&plot, &plot, view);
        check(&format!("nan {view:?}"), &scene, (64, 64), bound(view));
        let frame = Frame::of(&scene.quads, (64, 64));
        let grey = frame.rgba.chunks_exact(4).filter(|px| *px == nan).count();
        assert!(grey > 10, "{view:?}: {grey} px of the NaN colour");
    }
}

/// A constant field has a degenerate range: the table maps everything to
/// its middle colour.
#[test]
fn constant_field_takes_one_colour() {
    let plot = slicer(ImageData::from_fn([8, 8, 6], [1.0; 3], [0.0; 3], |_, _, _| 7.0));
    let lut = plot.editor().lookup_table();
    assert_eq!(lut.range, (7.0, 7.0));
    let colour = lut.map(7.0).to_u8();
    for view in VIEWS {
        let scene = Scene::of(&plot, &plot, view);
        check(&format!("constant {view:?}"), &scene, (64, 64), bound(view));
        let frame = Frame::of(&scene.quads, (64, 64));
        for i in (0..64 * 64).filter(|&i| frame.covered(i)) {
            assert_eq!(frame.pixel(i), colour, "{view:?}: pixel {i}");
        }
    }
}

#[test]
fn contour_overlay_still_draws_on_top() {
    let overlay = ImageData::from_fn([8, 8, 6], [1.0; 3], [0.0; 3], |x, y, _| (x * y) as f32);
    let plot = SlicerPlot::new(fixture(), Some(overlay)).unwrap();
    let white = Color::WHITE.to_u8();
    for view in VIEWS {
        let scene = Scene::of(&plot, &plot, view);
        assert_eq!(scene.quads.actors().len(), 1, "the contour lines");
        check(&format!("overlay {view:?}"), &scene, (64, 64), bound(view));
        let lines = |r: &Renderer| {
            let f = Frame::of(r, (64, 64));
            f.rgba.chunks_exact(4).map(|px| px == white).collect::<Vec<_>>()
        };
        let (on_quad, on_mesh) = (lines(&scene.quads), lines(&scene.mesh()));
        assert!(on_quad.iter().filter(|&&w| w).count() > 20, "{view:?}: no contour on top");
        assert!(on_quad == on_mesh, "{view:?}: the contour lines moved");
    }
}

/// The eye inside the fixture, just above its z plane and looking along
/// it: the plane runs from behind the eye to the far wall. The mesh drops
/// every triangle with a corner at `w ≤ 1e-9`; the quad draws every pixel
/// whose ray meets the plane in front of the eye and inside the clip
/// range. So, off the silhouettes, the quad covers what the mesh covers,
/// and each pixel it adds lies, by an independent ray cast, in a triangle
/// the mesh dropped. Near the eye one cell spans much of the frame and its
/// depth varies most, so the mesh's screen-affine colours stray from the
/// perspective-correct ones by more than the 2 levels of the other cases:
/// every pixel the quad draws is held instead to within 1 level of the
/// perspective-correct colour the ray cast computes, and where the mesh
/// draws too, the two stay inside the range of the triangle's three
/// corner colours.
#[test]
fn camera_inside_the_volume_clips_per_pixel() {
    let plot = slicer(fixture());
    let k = plot.slice_index[2];
    let z = k as f64; // unit spacing, origin 0
    let mut scene = Scene::of(&plot, &plot, (0.0, 0.0));
    let cam = &mut scene.quads.camera;
    cam.position = Vec3::new(2.3, 3.4, z + 0.15);
    cam.focal_point = Vec3::new(7.0, 3.9, z - 0.3);
    cam.view_up = Vec3::new(0.0, 0.0, 1.0);
    cam.view_angle_deg = 70.0;
    // near / far = 1e-7: NDC depth of a point d behind the eye is about
    // 1 + 2e-4 / d, inside the clip range beyond 0.2 — so only the kernel's
    // `1/w > 0` test keeps the plane behind the eye off the screen
    cam.clipping_range = (1e-4, 1000.0);
    let size = (96, 72);
    let seen = compare("camera inside", &scene, size, u8::MAX);
    let (quad, mesh) = (Frame::of(&scene.quads, size), Frame::of(&scene.mesh(), size));
    let vp = {
        let c = &scene.quads.camera;
        c.projection_matrix(size.0 as f64 / size.1 as f64).mul_mat(&c.view_matrix())
    };
    let inv = vp.inverse().unwrap();
    let plane = ImageSlice::from_image(&scene.img, SliceAxis::Z, k, scene.lut.clone()).unwrap();
    let (texels, (nu, nv)) = plane.texels();
    // the plane point under pixel i: the corners (u, v) of the cell
    // triangle it falls in and its weights there
    let under = |i: usize| {
        let (x, y) = ((i % size.0) as f64, (i / size.0) as f64);
        let ndc = |d: f64| {
            let (w, h) = ((size.0 - 1) as f64, (size.1 - 1) as f64);
            Vec3::new(2.0 * x / w - 1.0, 1.0 - 2.0 * y / h, d)
        };
        let (near, far) = (inv.transform_point(ndc(-1.0)), inv.transform_point(ndc(1.0)));
        let along = (z - near.z) / (far.z - near.z);
        assert!(along > 0.0, "pixel {i} shows the plane behind the eye");
        let hit = near.lerp(far, along);
        let (s, t) = (hit.x.clamp(0.0, (nu - 1) as f64), hit.y.clamp(0.0, (nv - 1) as f64));
        let (u0, v0) = ((s as usize).min(nu - 2), (t as usize).min(nv - 2));
        let (fs, ft) = (s - u0 as f64, t - v0 as f64);
        if fs >= ft {
            ([(u0, v0), (u0 + 1, v0), (u0 + 1, v0 + 1)], [1.0 - fs, fs - ft, ft])
        } else {
            ([(u0, v0), (u0 + 1, v0 + 1), (u0, v0 + 1)], [1.0 - ft, fs, ft - fs])
        }
    };
    let texel = |(u, v): (usize, usize)| texels[v * nu + u];
    let w_of = |(u, v): (usize, usize)| vp.transform_point4(Vec3::new(u as f64, v as f64, z)).1;
    for i in (0..size.0 * size.1).filter(|&i| quad.covered(i)) {
        let (corners, w) = under(i);
        let c = corners.map(texel);
        let exact = Color {
            r: w[0] as f32 * c[0].r + w[1] as f32 * c[1].r + w[2] as f32 * c[2].r,
            g: w[0] as f32 * c[0].g + w[1] as f32 * c[1].g + w[2] as f32 * c[2].g,
            b: w[0] as f32 * c[0].b + w[1] as f32 * c[1].b + w[2] as f32 * c[2].b,
            a: w[0] as f32 * c[0].a + w[1] as f32 * c[1].a + w[2] as f32 * c[2].a,
        };
        let off = quad.pixel(i).iter().zip(exact.to_u8()).map(|(a, b)| a.abs_diff(b)).max();
        assert!(off <= Some(1), "pixel {i}: {:?}, exactly {:?}", quad.pixel(i), exact.to_u8());
        if mesh.covered(i) {
            let corner_u8 = c.map(Color::to_u8);
            for ch in 0..4 {
                let (lo, hi) = corner_u8.iter().fold((u8::MAX, 0), |(lo, hi), px| {
                    (lo.min(px[ch]), hi.max(px[ch]))
                });
                let m = mesh.pixel(i)[ch];
                assert!((lo..=hi).contains(&m), "pixel {i}: the mesh left its triangle");
            }
        }
    }
    for &i in &seen.added {
        let (corners, _) = under(i);
        assert!(
            corners.iter().any(|&c| w_of(c) <= 1e-9),
            "pixel {i} lies in a triangle the mesh kept: {corners:?}"
        );
    }
    let added = seen.added.len();
    assert!(added > 50, "the plane must cross the eye plane: {added} px added");
}
