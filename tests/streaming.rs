//! The chunk path, end to end: a `.ncr` v3 series on disk, scrubbed through
//! `StreamingAnimation` in order and by jumps, against `AnimationController`
//! over the same variable in memory — every frame's image bit for bit, and
//! the session's chunk reads exactly the requests the cache could not serve.

use std::sync::Arc;
use uvcdat::cdms::format_v3::{self, V3Options};
use uvcdat::cdms::storage::LocalDisk;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::cdms::{StreamOptions, StreamingDataset};
use uvcdat::dv3d::animation::{AnimationController, StreamingAnimation};
use uvcdat::dv3d::cell::Dv3dCell;
use uvcdat::dv3d::plots::PlotSpec;
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};

#[test]
fn scrubbing_a_streamed_series_shows_the_in_memory_frames_and_reads_only_misses() {
    const WINDOW: usize = 2;
    let ds = SynthesisSpec::new(16, 2, 10, 14).seed(23).build();
    let ta = ds.variable("ta").unwrap();
    let dir = std::env::temp_dir().join(format!("uvcdat_streaming_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("series.ncr");
    let v3 = V3Options { window: WINDOW, levels: 2, compress: true };
    format_v3::write_dataset_v3_with(&LocalDisk, &ds, &path, &v3).unwrap();

    // a decoded window is f32 + mask byte per element; the cache holds three
    let window_bytes = WINDOW * 2 * 10 * 14 * 5;
    let sopts = StreamOptions { cache_bytes: 3 * window_bytes, ..StreamOptions::default() };
    let topts = TranslationOptions::default();
    let first = translate_scalar(&ta.time_slab(0).unwrap(), &topts).unwrap();
    let mut in_memory = AnimationController::from_variable(ta, &topts).unwrap();

    // what a cache of three windows must miss: in order, each of the 8
    // windows once; the jumps show windows 0 7 3 0 7 3 5 5 1 7 4 0 1, of
    // which the second 0 7 3 and the second 5 are still held
    let in_order: Vec<usize> = (0..16).collect();
    let jumps = [0usize, 14, 7, 1, 15, 6, 10, 11, 2, 15, 9, 0, 3];
    for (script, misses) in [(in_order.as_slice(), 8), (jumps.as_slice(), 9)] {
        let sd = StreamingDataset::open_with(Arc::new(LocalDisk), &path, sopts.clone()).unwrap();
        let mut streamed =
            StreamingAnimation::new(sd.variable("ta").unwrap(), topts.clone()).unwrap();
        let mut cell_a = Dv3dCell::new("ta", PlotSpec::slicer(first.clone()));
        let mut cell_b = Dv3dCell::new("ta", PlotSpec::slicer(first.clone()));
        for &t in script {
            in_memory.seek(cell_a.plot_mut(), t).unwrap();
            streamed.seek(cell_b.plot_mut(), t).unwrap();
            assert_eq!(
                cell_b.plot().image().scalars,
                cell_a.plot().image().scalars,
                "streamed frame {t} differs from the in-memory one"
            );
        }
        let report = streamed.report();
        assert_eq!(report.chunk_reads, misses, "{report}");
        assert_eq!(report.cache_misses, misses, "{report}");
        assert_eq!(report.cache_hits, script.len() as u64 - misses, "{report}");
        assert!(report.peak_cache_bytes as usize <= 3 * window_bytes, "{report}");
        assert_eq!(report.failed_chunks + report.degraded + report.salvaged + report.retried, 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
