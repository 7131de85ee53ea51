//! Figure-level reproduction tests: each of the paper's figures has its
//! underlying pipeline regenerated and checked (E2–E5 of DESIGN.md).
//!
//! Every frame of Figs 2–4 is also pinned by the FNV-1a hash of its RGBA8
//! bytes ([`fnv1a`], the pin checksum), drawn at rayon pools of 1, 2 and 8,
//! and Fig 5's per-panel coverage is pinned bit for bit: a pixel that
//! moves fails here even when every coverage count still passes.

use rayon::with_threads;
use uvcdat::cdat::hovmoller;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::dv3d::cell::Dv3dCell;
use uvcdat::dv3d::interaction::{Axis3, CameraOp, ConfigOp, VectorMode};
use uvcdat::dv3d::plots::PlotSpec;
use uvcdat::dv3d::spreadsheet::Dv3dSpreadsheet;
use uvcdat::dv3d::translation::{translate_scalar, translate_vector, TranslationOptions};
use uvcdat::hyperwall::cluster::run_wall;
use uvcdat::hyperwall::frame_delta::fnv1a;
use uvcdat::hyperwall::workflow::WallWorkflowConfig;
use uvcdat::rvtk::render::{Framebuffer, Renderer};
use uvcdat::rvtk::Color;

/// The rayon pools every pinned frame is drawn at.
const POOLS: [usize; 3] = [1, 2, 8];

/// Draws `frames` at every pool of [`POOLS`] and holds the hash of each
/// frame's RGBA8 bytes to `pins`.
fn assert_pinned(fig: &str, pins: &[u64], frames: impl Fn() -> Vec<Framebuffer>) {
    for threads in POOLS {
        let got: Vec<u64> =
            with_threads(threads, &frames).iter().map(|fb| fnv1a(&fb.to_rgba8())).collect();
        assert!(got == pins, "{fig} at {threads} threads: {got:#018x?}");
    }
}

/// Fig 2's frames, slicer / volume / vector glyphs: one frame per cell,
/// each turned by the `Azimuth(30)` it takes before its first render.
const FIG2_PINS: [u64; 3] = [0xdfa7_a1cf_0179_81d9, 0x783b_b85d_8098_c8b6, 0xf916_e3f1_98d7_f152];
/// Fig 3's frames: the colored isosurface, then the volume + slicer cell.
const FIG3_PINS: [u64; 2] = [0x40f1_dd57_2086_8c96, 0x1646_9a24_1a6b_f966];
/// Fig 4's frames: the Hovmöller slicer, then the Hovmöller volume.
const FIG4_PINS: [u64; 2] = [0x8b74_01e3_1dbd_ed63, 0xc59a_757d_4722_b803];
/// Fig 5's per-panel coverage, frame by frame.
const FIG5_COVERAGE: [[f64; 15]; 2] = [
    [
        0.2181712962962963, 0.22280092592592593, 0.13599537037037038, 0.1579861111111111,
        0.2175925925925926, 0.2170138888888889, 0.22569444444444445, 0.13425925925925927,
        0.1597222222222222, 0.2181712962962963, 0.22395833333333334, 0.22858796296296297,
        0.1417824074074074, 0.16377314814814814, 0.22337962962962962,
    ],
    [
        0.22685185185185186, 0.22800925925925927, 0.13599537037037038, 0.16087962962962962,
        0.22627314814814814, 0.22569444444444445, 0.2309027777777778, 0.13425925925925927,
        0.16261574074074073, 0.22685185185185186, 0.2326388888888889, 0.2337962962962963,
        0.1417824074074074, 0.16666666666666666, 0.23206018518518517,
    ],
];

/// Fig 2: DV3D inside the UV-CDAT spreadsheet — several coordinated plots
/// of one dataset, responding to shared interaction.
#[test]
fn fig2_spreadsheet_of_coordinated_plots() {
    assert_pinned("Fig 2", &FIG2_PINS, || {
        let ds = SynthesisSpec::new(2, 4, 20, 40).build();
        let opts = TranslationOptions::default();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let ua = ds.variable("ua").unwrap().time_slab(0).unwrap();
        let va = ds.variable("va").unwrap().time_slab(0).unwrap();

        let mut sheet = Dv3dSpreadsheet::new(1, 3);
        sheet
            .place(
                (0, 0),
                Dv3dCell::new("ta slicer", PlotSpec::slicer(translate_scalar(&ta, &opts).unwrap())),
            )
            .unwrap();
        sheet
            .place(
                (0, 1),
                Dv3dCell::new("ta volume", PlotSpec::volume(translate_scalar(&ta, &opts).unwrap())),
            )
            .unwrap();
        let mut vcell = Dv3dCell::new(
            "wind",
            PlotSpec::vector_slicer(translate_vector(&ua, &va, &opts).unwrap()),
        );
        vcell.configure(&ConfigOp::SetVectorMode(VectorMode::Glyphs)).unwrap();
        sheet.place((0, 2), vcell).unwrap();

        // one interaction hits all active cells
        sheet.configure_active(&ConfigOp::Camera(CameraOp::Azimuth(30.0))).unwrap();
        let n = sheet.configure_active(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 }).unwrap();
        assert_eq!(n, 3);

        let frames = sheet.render_all(96, 72).unwrap();
        assert_eq!(frames.len(), 3);
        for ((r, c), fb) in &frames {
            assert!(fb.covered_pixels(Color::BLACK) > 50, "cell ({r},{c}) nearly empty");
        }
        frames.into_values().collect()
    });
}

/// Fig 3: an isosurface plot and a combined volume-render + slicer plot.
#[test]
fn fig3_isosurface_and_combined_volume_slicer() {
    assert_pinned("Fig 3", &FIG3_PINS, || {
        let ds = SynthesisSpec::new(1, 6, 24, 48).build();
        let opts = TranslationOptions::default();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let hus = ds.variable("hus").unwrap().time_slab(0).unwrap();
        let ta_img = translate_scalar(&ta, &opts).unwrap();
        let hus_img = translate_scalar(&hus, &opts).unwrap();

        // bottom of Fig 3: isosurface of one variable colored by a second
        let mut iso = Dv3dCell::new(
            "ta isosurface colored by hus",
            PlotSpec::isosurface_colored(ta_img.clone(), hus_img),
        );
        let iso_fb = iso.render(128, 96).unwrap();
        assert!(iso_fb.covered_pixels(Color::BLACK) > 200);

        // top of Fig 3: a volume render *combined* with a slice plane in one
        // cell — model as two plots populating one renderer
        let slicer = PlotSpec::slicer(ta_img.clone()).build().unwrap();
        let volume = PlotSpec::volume(ta_img).build().unwrap();
        let mut r = Renderer::new();
        slicer.populate(&mut r).unwrap();
        volume.populate(&mut r).unwrap();
        r.reset_camera();
        let mut fb = Framebuffer::new(128, 96);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 300);
        assert_eq!(r.image_slices().len(), 1);
        assert_eq!(r.volumes().len(), 1);
        vec![iso_fb, fb]
    });
}

/// Fig 4: Hovmöller slicer and volume over a time-as-vertical volume, and
/// the quantitative content of the figure — the ridge slope (phase speed).
#[test]
fn fig4_hovmoller_plots_and_phase_speed() {
    let configured = 8.0;
    let ds = SynthesisSpec::new(24, 1, 16, 48).noise(0.02).wave(configured, 5.0).build();
    let wave = ds.variable("wave").unwrap();

    // measured ridge slope matches the configured propagation
    let section = hovmoller::lon_time_section(wave, (-15.0, 15.0)).unwrap();
    let measured = hovmoller::zonal_phase_speed(&section).unwrap();
    assert!(
        (measured - configured).abs() < 4.0,
        "measured {measured} vs configured {configured}"
    );
    assert!(measured > 0.0, "eastward");

    // both Hovmöller plot flavours render
    assert_pinned("Fig 4", &FIG4_PINS, || {
        let vol = hovmoller::hovmoller_volume(wave).unwrap();
        let img = translate_scalar(&vol, &TranslationOptions::default()).unwrap();
        [PlotSpec::hovmoller_slicer(img.clone()), PlotSpec::hovmoller_volume(img)]
            .into_iter()
            .map(|spec| {
                let name = spec.palette_name();
                let mut cell = Dv3dCell::try_new(name, spec).unwrap();
                let fb = cell.render(96, 72).unwrap();
                assert!(fb.covered_pixels(Color::BLACK) > 40, "{name}");
                fb
            })
            .collect()
    });
}

/// Fig 5: the 15-cell hyperwall execution model — server assigns per-cell
/// sub-workflows, clients render full-res, the server keeps a low-res
/// mirror for any panel that fails, interaction ops propagate to every
/// display.
#[test]
fn fig5_hyperwall_fifteen_cells() {
    let cfg = WallWorkflowConfig { n_cells: 15, synth: (1, 2, 10, 20), cell_px: (48, 36) };
    let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(15.0))];
    let report = run_wall(&cfg, 4, 2, &ops).unwrap();
    assert_eq!(report.n_clients, 15);
    assert_eq!(report.client_frames, 30);
    // every display produced pixels on every frame
    for f in &report.frames {
        assert_eq!(f.coverage.len(), 15);
        assert!(f.coverage.iter().all(|&c| c > 0.0));
    }
    // and exactly the pixels it always did
    let bits = |c: &[f64]| c.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(report.frames.len(), FIG5_COVERAGE.len());
    for (f, want) in report.frames.iter().zip(&FIG5_COVERAGE) {
        assert_eq!(bits(&f.coverage), bits(want), "frame {}: {:?}", f.frame, f.coverage);
    }
    // interaction broadcast reached all clients quickly
    assert!(report.op_broadcast_ms[0] < 1000.0);
}
