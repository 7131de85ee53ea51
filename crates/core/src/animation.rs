//! 4D animation: stepping a plot through timesteps.
//!
//! "Animating over one of the data dimensions (typically time) provides a
//! very effective method for viewing and browsing 4D data" (§III.D). There
//! is one playhead — an index, `seek` and `render_loop` — over two frame
//! sources: [`AnimationController`] pre-translates every
//! timestep into memory and clones frame *t*; [`StreamingAnimation`]
//! fetches, salvages and translates frame *t* off a `.ncr` v3 file as the
//! playhead reaches it. Either way the plot keeps its interactive state,
//! and the index moves only once the plot has taken the frame.

// Hot path: on a wall client the playhead's indices arrive off a socket.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::plots::Plot;
use crate::translation::{translate_scalar, TranslationOptions};
use crate::{Dv3dError, Result};
use cdms::axis::AxisKind;
use cdms::{StreamReport, StreamingVariable, Variable};
use rvtk::ImageData;

/// Where a [`Playhead`]'s frames come from. Two implementations: frames
/// held in memory, and frames streamed off disk.
pub trait FrameSource {
    /// Number of frames.
    fn n_frames(&self) -> usize;

    /// Frame `t`, ready for [`Plot::set_image`].
    fn frame(&self, t: usize) -> Result<ImageData>;
}

fn out_of_range(index: usize, n: usize) -> Dv3dError {
    Dv3dError::Config(format!("frame {index} out of range ({n} frames)"))
}

impl FrameSource for Vec<ImageData> {
    fn n_frames(&self) -> usize {
        self.len()
    }

    fn frame(&self, t: usize) -> Result<ImageData> {
        self.get(t).cloned().ok_or_else(|| out_of_range(t, self.len()))
    }
}

/// A lazy, bounded-memory view of a `.ncr` v3 variable and how to
/// translate its slabs.
#[derive(Debug, Clone)]
pub struct Streamed {
    var: StreamingVariable,
    opts: TranslationOptions,
}

impl FrameSource for Streamed {
    fn n_frames(&self) -> usize {
        self.var.n_times()
    }

    /// Fetches and translates frame `t`, degrading rather than failing
    /// when chunks are unreadable.
    fn frame(&self, t: usize) -> Result<ImageData> {
        let slab = self.var.time_slab_degraded(t).map_err(Dv3dError::from)?;
        translate_scalar(&slab, &self.opts)
    }
}

/// Steps a plot through the frames of a [`FrameSource`].
#[derive(Debug, Clone)]
pub struct Playhead<S> {
    frames: S,
    current: usize,
    /// Wrap around at the ends.
    pub looping: bool,
}

/// Steps a plot through a time series translated into memory up front.
pub type AnimationController = Playhead<Vec<ImageData>>;

/// Steps a plot through a time series streamed off disk.
///
/// Unlike [`AnimationController`], which pre-translates every timestep
/// into memory, this controller holds only a [`StreamingVariable`] — a
/// lazy, bounded-memory view of a `.ncr` v3 file — and translates each
/// frame on demand as the playhead reaches it. A series far larger than
/// RAM plays at a fixed memory ceiling (the stream's chunk-cache budget),
/// and faulted chunks degrade to a coarser pyramid level or masked fill
/// instead of stalling playback; [`StreamingAnimation::report`] says how
/// often that happened.
pub type StreamingAnimation = Playhead<Streamed>;

impl<S: FrameSource> Playhead<S> {
    fn over(frames: S) -> Playhead<S> {
        Playhead { frames, current: 0, looping: true }
    }

    /// Number of frames.
    pub(crate) fn len(&self) -> usize {
        self.frames.n_frames()
    }

    /// Installs frame `index` into the plot; the playhead moves only when
    /// the plot has taken it.
    fn show(&mut self, plot: &mut dyn Plot, index: usize) -> Result<usize> {
        plot.set_image(self.frames.frame(index)?)?;
        self.current = index;
        Ok(index)
    }

    /// Jumps to an absolute frame.
    pub fn seek(&mut self, plot: &mut dyn Plot, index: usize) -> Result<usize> {
        if index >= self.len() {
            return Err(out_of_range(index, self.len()));
        }
        self.show(plot, index)
    }

    /// Renders one full pass over all frames at the given size, returning
    /// the frames — the offline-animation path (and the fps benchmark
    /// body), also for series that never fit in memory at once.
    pub fn render_loop(
        &mut self,
        cell: &mut crate::cell::Dv3dCell,
        width: usize,
        height: usize,
    ) -> Result<Vec<rvtk::render::Framebuffer>> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            self.seek(cell.plot_mut(), i)?;
            out.push(cell.render(width, height)?);
        }
        Ok(out)
    }
}

impl AnimationController {
    /// Builds a controller from a `(time, [lev,] lat, lon)` variable by
    /// translating every time slab.
    pub fn from_variable(var: &Variable, opts: &TranslationOptions) -> Result<AnimationController> {
        if var.axis_index(AxisKind::Time).is_none() {
            return Err(Dv3dError::Config(format!("'{}' has no time axis", var.id)));
        }
        let frames: Result<Vec<ImageData>> =
            (0..var.n_times()).map(|t| translate_scalar(&var.time_slab(t)?, opts)).collect();
        Ok(Playhead::over(frames?))
    }
}

impl StreamingAnimation {
    /// Wraps a streaming variable for playback. The variable must carry a
    /// time axis; frames are fetched, salvaged, and translated lazily.
    pub fn new(var: StreamingVariable, opts: TranslationOptions) -> Result<StreamingAnimation> {
        if !var.has_time_axis() {
            return Err(Dv3dError::Config(format!("'{}' has no time axis", var.id())));
        }
        Ok(Playhead::over(Streamed { var, opts }))
    }

    /// Fault-tolerance counters for the underlying streaming session.
    pub fn report(&self) -> StreamReport {
        self.frames.var.report()
    }
}

/// The frame a step of `delta` from `current` lands on among `n` frames:
/// wrapped when `looping`, clamped to the ends otherwise. No `delta`
/// overflows — the wrap reduces it first, the clamp saturates.
#[cfg(test)]
fn stepped(current: usize, delta: i64, n: usize, looping: bool) -> usize {
    if !looping {
        return crate::plots::offset_index(current, delta, n);
    }
    let (current, n) = (current as i64, (n as i64).max(1));
    (current + delta.rem_euclid(n)).rem_euclid(n) as usize
}

#[cfg(test)]
impl<S: FrameSource> Playhead<S> {
    /// Current frame index.
    pub(crate) fn current(&self) -> usize {
        self.current
    }

    /// Steps by `delta` (negative allowed), honouring `looping`, and
    /// installs the frame into the plot. Returns the new index.
    pub(crate) fn step(&mut self, plot: &mut dyn Plot, delta: i64) -> Result<usize> {
        self.show(plot, stepped(self.current, delta, self.len(), self.looping))
    }
}

#[cfg(test)]
impl AnimationController {
    /// Builds a controller from pre-made frames.
    pub(crate) fn from_frames(frames: Vec<ImageData>) -> Result<AnimationController> {
        if frames.is_empty() {
            return Err(Dv3dError::Config("animation needs at least one frame".into()));
        }
        Ok(Playhead::over(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Dv3dCell;
    use crate::plots::PlotSpec;
    use cdms::synth::SynthesisSpec;

    fn controller_and_cell() -> (AnimationController, Dv3dCell) {
        let ds = SynthesisSpec::new(4, 1, 8, 16).build();
        let pr = ds.variable("pr").unwrap();
        let opts = TranslationOptions::default();
        let anim = AnimationController::from_variable(pr, &opts).unwrap();
        let first = anim.frames[0].clone();
        (anim, Dv3dCell::new("pr", PlotSpec::slicer(first)))
    }

    #[test]
    fn builds_one_frame_per_timestep() {
        let (anim, _) = controller_and_cell();
        assert_eq!(anim.len(), 4);
        assert_eq!(anim.current(), 0);
    }

    #[test]
    fn requires_time_axis_and_frames() {
        let ds = SynthesisSpec::new(2, 1, 8, 16).build();
        let lf = ds.variable("sftlf").unwrap();
        assert!(AnimationController::from_variable(lf, &TranslationOptions::default()).is_err());
        assert!(AnimationController::from_frames(vec![]).is_err());
    }

    #[test]
    fn stepping_updates_plot_data() {
        let (mut anim, mut cell) = controller_and_cell();
        let d0 = cell.plot().image().scalars.clone();
        anim.step(cell.plot_mut(), 1).unwrap();
        assert_eq!(anim.current(), 1);
        assert_ne!(cell.plot().image().scalars, d0);
    }

    #[test]
    fn looping_wraps_both_directions() {
        let (mut anim, mut cell) = controller_and_cell();
        anim.step(cell.plot_mut(), -1).unwrap();
        assert_eq!(anim.current(), 3);
        anim.step(cell.plot_mut(), 2).unwrap();
        assert_eq!(anim.current(), 1);
        anim.looping = false;
        anim.step(cell.plot_mut(), 100).unwrap();
        assert_eq!(anim.current(), 3);
        anim.step(cell.plot_mut(), -100).unwrap();
        assert_eq!(anim.current(), 0);
    }

    #[test]
    fn seek_validates() {
        let (mut anim, mut cell) = controller_and_cell();
        assert_eq!(anim.seek(cell.plot_mut(), 2).unwrap(), 2);
        assert!(anim.seek(cell.plot_mut(), 4).is_err());
    }

    #[test]
    fn render_loop_produces_distinct_frames() {
        let (mut anim, mut cell) = controller_and_cell();
        cell.show_colorbar = false;
        cell.show_labels = false;
        let frames = anim.render_loop(&mut cell, 48, 48).unwrap();
        assert_eq!(frames.len(), 4);
        // consecutive frames differ somewhere (the wave moves)
        let a: Vec<[u8; 4]> = frames[0].colors().iter().map(|c| c.to_u8()).collect();
        let b: Vec<[u8; 4]> = frames[2].colors().iter().map(|c| c.to_u8()).collect();
        assert_ne!(a, b);
    }

    // ---- streaming playback ----

    mod streaming {
        use super::*;
        use cdms::format_v3::{self, V3Options};
        use cdms::storage::{FaultyStorage, LocalDisk, StorageFault, StorageFaultPlan};
        use cdms::{Storage, StreamOptions, StreamingDataset};
        use std::sync::Arc;

        fn temp_path(tag: &str) -> std::path::PathBuf {
            let dir =
                std::env::temp_dir().join(format!("dv3d_stream_anim_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            dir.join(format!("{tag}.ncr"))
        }

        #[test]
        fn streaming_matches_precomputed_animation() {
            let ds = SynthesisSpec::new(6, 1, 8, 16).seed(31).build();
            let pr = ds.variable("pr").unwrap();
            let opts = TranslationOptions::default();
            let path = temp_path("healthy");
            let v3 = V3Options { window: 2, levels: 2, compress: true };
            format_v3::write_dataset_v3_with(&LocalDisk, &ds, &path, &v3).unwrap();

            let sd = StreamingDataset::open(&path).unwrap();
            let mut precomputed = AnimationController::from_variable(pr, &opts).unwrap();
            let mut streamed =
                StreamingAnimation::new(sd.variable("pr").unwrap(), opts.clone()).unwrap();
            assert_eq!(streamed.len(), precomputed.len());

            let first = translate_scalar(&pr.time_slab(0).unwrap(), &opts).unwrap();
            let mut cell_a = Dv3dCell::new("pr", PlotSpec::slicer(first.clone()));
            let mut cell_b = Dv3dCell::new("pr", PlotSpec::slicer(first));
            for t in 0..streamed.len() {
                precomputed.seek(cell_a.plot_mut(), t).unwrap();
                streamed.seek(cell_b.plot_mut(), t).unwrap();
                assert_eq!(
                    cell_b.plot().image().scalars,
                    cell_a.plot().image().scalars,
                    "streamed frame {t} differs from precomputed"
                );
            }
            let report = streamed.report();
            assert_eq!(report.failed_chunks, 0);
            assert_eq!(report.degraded + report.salvaged + report.retried, 0);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn streaming_render_survives_fault_storm() {
            let ds = SynthesisSpec::new(8, 1, 10, 16).seed(7).build();
            let pr = ds.variable("pr").unwrap();
            let v3 = V3Options { window: 2, levels: 2, compress: false };
            let path = temp_path("storm");
            format_v3::write_dataset_v3_with(&LocalDisk, &ds, &path, &v3).unwrap();

            // window 1: level 0 dead       → frames 2,3 degrade to the pyramid
            // window 2: both levels dead   → frames 4,5 fall back to masked fill
            let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
            let vi = meta.var_index("pr").unwrap();
            let entry = |w: usize, l: usize| *meta.chunk(vi, w, l).unwrap();
            let (e10, e20, e21) = (entry(1, 0), entry(2, 0), entry(2, 1));
            let plan = StorageFaultPlan::none()
                .inject_read(e10.offset..e10.offset + 1, StorageFault::ReadError, 0)
                .inject_read(e20.offset..e20.offset + 1, StorageFault::ReadError, 0)
                .inject_read(e21.offset..e21.offset + 1, StorageFault::ReadError, 0);
            let storage: Arc<dyn Storage> = Arc::new(FaultyStorage::new(plan));
            let sopts = StreamOptions {
                cache_bytes: 4_000,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                ..StreamOptions::default()
            };
            let sd = StreamingDataset::open_with(storage, &path, sopts).unwrap();

            let topts = TranslationOptions::default();
            let mut anim =
                StreamingAnimation::new(sd.variable("pr").unwrap(), topts.clone()).unwrap();
            let first = translate_scalar(&pr.time_slab(0).unwrap(), &topts).unwrap();
            let mut cell = Dv3dCell::new("pr", PlotSpec::slicer(first));
            cell.show_colorbar = false;
            cell.show_labels = false;

            // the acceptance criterion: every frame renders, storm or not
            let frames = anim.render_loop(&mut cell, 32, 32).unwrap();
            assert_eq!(frames.len(), 8);

            // stepping across the wrap keeps working with faults active
            assert_eq!(anim.step(cell.plot_mut(), 1).unwrap(), 0);
            assert_eq!(anim.step(cell.plot_mut(), -1).unwrap(), 7);

            let report = anim.report();
            assert_eq!(report.degraded, 2, "{report}");
            assert_eq!(report.salvaged, 2, "{report}");
            assert_eq!(report.failed_chunks, 3, "{report}");
            assert!(report.peak_cache_bytes <= 4_000, "{report}");
            std::fs::remove_file(&path).ok();
        }

        /// One index rule under both controllers: a frame the plot
        /// refuses leaves the playhead where it was, and no `delta`
        /// overflows the index arithmetic.
        #[test]
        fn refused_frames_and_extreme_steps_treat_both_controllers_alike() {
            use crate::plots::IsosurfacePlot;
            let ds = SynthesisSpec::new(4, 1, 8, 16).seed(5).build();
            let pr = ds.variable("pr").unwrap();
            let opts = TranslationOptions::default();
            let path = temp_path("index_rule");
            ds.save(&path).unwrap();
            let sd = StreamingDataset::open(&path).unwrap();
            let mut precomputed = AnimationController::from_variable(pr, &opts).unwrap();
            let mut streamed =
                StreamingAnimation::new(sd.variable("pr").unwrap(), opts.clone()).unwrap();

            // an isosurface colored by a field of other dims refuses every frame
            let odd = ImageData::from_fn([3, 3, 3], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
            let mut refusing = IsosurfacePlot::new(odd.clone(), Some(odd), None).unwrap();
            assert!(precomputed.step(&mut refusing, 1).is_err());
            assert_eq!(precomputed.current(), 0);
            assert!(streamed.step(&mut refusing, 1).is_err());
            assert_eq!(streamed.current(), 0);
            assert!(precomputed.seek(&mut refusing, 2).is_err());
            assert_eq!(precomputed.current(), 0);
            assert!(streamed.seek(&mut refusing, 2).is_err());
            assert_eq!(streamed.current(), 0);

            let first = translate_scalar(&pr.time_slab(0).unwrap(), &opts).unwrap();
            let mut cell = Dv3dCell::new("pr", PlotSpec::slicer(first));
            // from frame 1 of 4: i64::MAX ≡ 3 and i64::MIN ≡ 0 (mod 4)
            for (looping, delta, lands_on) in [
                (true, i64::MAX, 0),
                (true, i64::MIN, 1),
                (false, i64::MAX, 3),
                (false, i64::MIN, 0),
            ] {
                precomputed.looping = looping;
                streamed.looping = looping;
                precomputed.seek(cell.plot_mut(), 1).unwrap();
                streamed.seek(cell.plot_mut(), 1).unwrap();
                assert_eq!(precomputed.step(cell.plot_mut(), delta).unwrap(), lands_on);
                assert_eq!(streamed.step(cell.plot_mut(), delta).unwrap(), lands_on);
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn streaming_rejects_windowless_variables() {
            let ds = SynthesisSpec::new(2, 1, 6, 8).build();
            let path = temp_path("windowless");
            ds.save(&path).unwrap();
            let sd = StreamingDataset::open(&path).unwrap();
            let lf = sd.variable("sftlf").unwrap();
            assert!(StreamingAnimation::new(lf, TranslationOptions::default()).is_err());
            std::fs::remove_file(&path).ok();
        }
    }
}
