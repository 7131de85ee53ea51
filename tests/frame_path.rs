//! The frame path writes each pixel once. `RenderWindow::render` builds its
//! image band by band into storage nothing wrote before: each tile-row band
//! is written as the background, then rasterized (DESIGN §27). Here that
//! image is held, byte for byte in RGBA8, to the same scene drawn into a
//! pre-filled `Framebuffer::new` that already holds another frame, at rayon
//! pools of 1, 2 and 8: the slicer, the isosurface, the volume, Fig 3's
//! volume + slicer, a non-black background, and both stereo modes, whose
//! composites read `pixel()` from eye framebuffers. The stereo reference is
//! the composite as it was written before the change, over pre-filled
//! framebuffers throughout.
//!
//! Every case's frame, and the `Dv3dCell` frame of every plot (overlays
//! and odd sizes included), is also pinned by an FNV-1a hash of its RGBA8
//! bytes recorded from the code before the change: a pixel that moved
//! fails here even if both paths moved it alike.

use rayon::with_threads;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::dv3d::cell::Dv3dCell;
use uvcdat::dv3d::interaction::{CameraOp, ConfigOp};
use uvcdat::dv3d::plots::PlotSpec;
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};
use uvcdat::hyperwall::frame_delta::fnv1a;
use uvcdat::rvtk::render::{Framebuffer, RenderWindow, Renderer, StereoMode};
use uvcdat::rvtk::{Color, ImageData};

/// An odd width, so side-by-side stereo leaves a column to the background,
/// and a height that ends in a short tile row.
const SIZE: (usize, usize) = (161, 121);

const POOLS: [usize; 3] = [1, 2, 8];

fn field() -> ImageData {
    let ds = SynthesisSpec::new(1, 8, 45, 90).build();
    let slab = ds.variable("ta").unwrap().time_slab(0).unwrap();
    translate_scalar(&slab, &TranslationOptions::default()).unwrap()
}

fn plots(img: &ImageData) -> [(&'static str, PlotSpec); 4] {
    [
        ("slicer", PlotSpec::slicer(img.clone())),
        ("isosurface", PlotSpec::isosurface(img.clone())),
        ("volume", PlotSpec::volume(img.clone())),
        ("volume + slicer", PlotSpec::combined_volume_slicer(img.clone())),
    ]
}

/// `spec`'s scene over `background`, seen from the reset camera turned a
/// little, so the surfaces are not edge-on.
fn scene(spec: PlotSpec, background: Color) -> Renderer {
    let mut r = Renderer::new();
    r.background = background;
    spec.build().unwrap().populate(&mut r).unwrap();
    r.reset_camera();
    r.camera.azimuth(25.0);
    r.camera.elevation(20.0);
    r
}

/// `r` drawn into a `Framebuffer::new` that already holds another frame:
/// another camera, another background, and a stray pixel.
fn prefilled(r: &Renderer, width: usize, height: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    let mut other = r.clone();
    other.background = Color::rgba(0.9, 0.1, 0.6, 0.5);
    other.camera.azimuth(90.0);
    other.render(&mut fb);
    fb.set_pixel(width / 2, height - 1, Color::WHITE);
    r.render(&mut fb);
    fb
}

/// The stereo composites as written before the change: eye framebuffers
/// and the window's own image all made by `Framebuffer::new`.
fn stereo_reference(r: &Renderer, mode: StereoMode) -> Framebuffer {
    let (width, height) = SIZE;
    let sep = r.camera.distance() / 30.0;
    let (lc, rc) = r.camera.stereo_pair(sep);
    let mut out = Framebuffer::new(width, height);
    match mode {
        StereoMode::Off => unreachable!("mono has its own reference"),
        StereoMode::Anaglyph => {
            let mut left = r.clone();
            left.camera = lc;
            let mut right = r.clone();
            right.camera = rc;
            let (fb_l, fb_r) = (prefilled(&left, width, height), prefilled(&right, width, height));
            for y in 0..height {
                for x in 0..width {
                    let l = fb_l.pixel(x, y).luminance();
                    let r = fb_r.pixel(x, y);
                    out.set_pixel(x, y, Color::rgb(l, r.g, r.b));
                }
            }
        }
        StereoMode::SideBySide => {
            let half = (width / 2).max(1);
            for (cam, x_off) in [(lc, 0usize), (rc, half)] {
                let mut eye = r.clone();
                eye.camera = cam;
                let fb_half = prefilled(&eye, half, height);
                for y in 0..height {
                    for x in 0..half {
                        out.set_pixel(x + x_off, y, fb_half.pixel(x, y));
                    }
                }
            }
        }
    }
    out
}

/// The RGBA8 of `r` through the window, at every pool, after checking each
/// against the pre-filled reference.
fn window_frame(case: &str, r: &Renderer, mode: StereoMode) -> Vec<u8> {
    let want = with_threads(1, || match mode {
        StereoMode::Off => prefilled(r, SIZE.0, SIZE.1),
        _ => stereo_reference(r, mode),
    })
    .to_rgba8();
    for threads in POOLS {
        let got = with_threads(threads, || {
            let mut window = RenderWindow::new(SIZE.0, SIZE.1);
            window.stereo = mode;
            window.render(r);
            window.into_framebuffer().to_rgba8()
        });
        assert!(got == want, "{case}, {mode:?}: the window's frame differs at {threads} threads");
    }
    want
}

/// The pinned hash of every case, from the code before the change.
fn check_pins(got: &[(String, u64)], pins: &[(&str, u64)]) {
    let missing: Vec<String> = got.iter().map(|(c, h)| format!("(\"{c}\", {h:#018x}),")).collect();
    assert_eq!(got.len(), pins.len(), "pins to record:\n{}", missing.join("\n"));
    for ((case, hash), (pin_case, pin)) in got.iter().zip(pins) {
        assert_eq!((case.as_str(), *hash), (*pin_case, *pin), "{case}: the frame moved");
    }
}

#[test]
fn the_window_writes_the_frame_a_prefilled_framebuffer_shows() {
    let img = field();
    let grey = Color::rgb(0.2, 0.3, 0.4);
    let mut got = Vec::new();
    for (name, spec) in plots(&img) {
        for (bg_name, bg) in [("black", Color::BLACK), ("grey", grey)] {
            let case = format!("{name} on {bg_name}");
            let rgba = window_frame(&case, &scene(spec.clone(), bg), StereoMode::Off);
            got.push((case, fnv1a(&rgba)));
        }
    }
    for mode in [StereoMode::Anaglyph, StereoMode::SideBySide] {
        for (name, spec) in [&plots(&img)[1], &plots(&img)[3]] {
            let case = format!("{name} on grey, {mode:?}");
            let rgba = window_frame(&case, &scene(spec.clone(), grey), mode);
            got.push((case, fnv1a(&rgba)));
        }
    }
    check_pins(&got, PINS);
}

#[test]
fn the_cell_frame_is_unchanged_at_every_pool() {
    let img = field();
    let mut got = Vec::new();
    for (name, spec) in plots(&img) {
        for (size, stereo) in [(SIZE, StereoMode::Off), ((200, 90), StereoMode::SideBySide)] {
            let mut frames = POOLS.iter().map(|&threads| {
                with_threads(threads, || {
                    let mut cell = Dv3dCell::try_new("ta", spec.clone()).unwrap();
                    cell.background = Color::rgb(0.05, 0.1, 0.15);
                    cell.stereo = stereo;
                    cell.configure(&ConfigOp::Camera(CameraOp::Azimuth(30.0))).unwrap();
                    cell.render(size.0, size.1).unwrap().to_rgba8()
                })
            });
            let first = frames.next().unwrap();
            assert!(frames.all(|f| f == first), "{name}, {stereo:?}: the pools disagree");
            got.push((format!("cell {name}, {stereo:?}"), fnv1a(&first)));
        }
    }
    check_pins(&got, CELL_PINS);
}

const PINS: &[(&str, u64)] = &[
    ("slicer on black", 0x26b2b8469043ffe0),
    ("slicer on grey", 0x7f60ae5de958d1c8),
    ("isosurface on black", 0x4f5b68c4499ac0d8),
    ("isosurface on grey", 0xfa75c5fe44bd0e7c),
    ("volume on black", 0x2baf12ff5b810190),
    ("volume on grey", 0xe0fc46fbc44e93a0),
    ("volume + slicer on black", 0x1507ab7cff039f89),
    ("volume + slicer on grey", 0x107f937bf493b18b),
    ("isosurface on grey, Anaglyph", 0x08b05f14b2079a4d),
    ("volume + slicer on grey, Anaglyph", 0x2d436b8eb483e2b2),
    ("isosurface on grey, SideBySide", 0x802768375424b882),
    ("volume + slicer on grey, SideBySide", 0x6793588dafbd6734),
];

/// The cells turned by `Azimuth(30)` before their first render. Recorded
/// from cells rendered once before the op: an op given to an unframed cell
/// used to be dropped, and the first render showed the unturned view.
const CELL_PINS: &[(&str, u64)] = &[
    ("cell slicer, Off", 0xe435bc69ebcf9464),
    ("cell slicer, SideBySide", 0x0d343d699e7e12b7),
    ("cell isosurface, Off", 0x6786bf2f7ab46b94),
    ("cell isosurface, SideBySide", 0xbd9ef2485d99208d),
    ("cell volume, Off", 0xe3545f03d4afb1d4),
    ("cell volume, SideBySide", 0xf5aabecf5d39ebd6),
    ("cell volume + slicer, Off", 0x71af1e144418fe4d),
    ("cell volume + slicer, SideBySide", 0x0fcb6745e32b3384),
];
