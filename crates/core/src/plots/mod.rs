//! The DV3D plot types (§III.C): coordinated interactive 3D views, each
//! highlighting particular features of the data.
//!
//! Every plot implements [`Plot`]: it owns its data and interactive state,
//! responds to [`ConfigOp`]s, and populates an `rvtk` renderer with actors
//! and volumes. DV3D cells, the spreadsheet, the animation controller and
//! the hyperwall clients all drive plots exclusively through this trait.
//!
//! `PALETTE` is the one list of the plot types the package ships: the
//! workflow modules, the prebuilt workflows, the CLI's `--type`, the wall's
//! cells and the GUI model's plot view are all read off it. A new plot type
//! is a `plots/x.rs` and one row.

mod composite;
mod hovmoller;
mod isosurface;
mod slicer;
mod vector_slicer;
mod volume;

pub use composite::CompositePlot;
pub(crate) use hovmoller::{HovmollerMode, HovmollerPlot};
pub use isosurface::IsosurfacePlot;
pub use slicer::SlicerPlot;
pub(crate) use vector_slicer::VectorSlicerPlot;
pub use volume::VolumePlot;

use crate::interaction::{ConfigOp, VectorMode};
use crate::transfer::TransferEditor;
use crate::{Dv3dError, Result};
use rvtk::render::Renderer;
use rvtk::{ImageData, LookupTable};
use vistrails::value::{ParamValue, Params};

/// The common interface of all DV3D plot types.
pub trait Plot: Send {
    /// Short type name shown in labels ("Slicer", "Volume", …).
    fn type_name(&self) -> &'static str;

    /// Applies a configuration operation; returns `true` when the op was
    /// meaningful for this plot type (camera ops are handled by the cell).
    fn configure(&mut self, op: &ConfigOp) -> Result<bool>;

    /// Adds this plot's actors/volumes to a renderer.
    fn populate(&self, renderer: &mut Renderer) -> Result<()>;

    /// The transfer-function state behind the plot's colors (a wrapper
    /// answers with its first member's).
    fn editor(&self) -> &TransferEditor;

    /// The scalar range being visualized.
    fn scalar_range(&self) -> (f32, f32) {
        self.editor().data_range
    }

    /// The lookup table for the cell's colorbar legend.
    fn legend(&self) -> LookupTable {
        self.editor().lookup_table()
    }

    /// Whether [`Plot::set_image`] would take `image`, checked without
    /// changing anything — what lets a composite refuse a frame before any
    /// member has taken it.
    fn check_image(&self, _image: &ImageData) -> Result<()> {
        Ok(())
    }

    /// Replaces the plot's data (animation steps through timesteps this
    /// way), preserving interactive state where it remains valid. A
    /// refused image leaves the plot as it was.
    fn set_image(&mut self, image: ImageData) -> Result<()>;

    /// The current primary image (used by probing).
    fn image(&self) -> &ImageData;

    /// One-line description of the interactive state for the cell label.
    fn status_line(&self) -> String;
}

/// A declarative description of a plot — what the plot-palette entries and
/// workflow modules construct.
#[derive(Debug, Clone)]
pub enum PlotSpec {
    Slicer {
        image: ImageData,
        /// Second variable overlaid as contour lines on the z plane.
        overlay: Option<ImageData>,
    },
    Volume {
        image: ImageData,
    },
    Isosurface {
        image: ImageData,
        /// Second variable coloring the surface.
        color_image: Option<ImageData>,
        /// Initial isovalue (defaults to the range midpoint).
        isovalue: Option<f32>,
    },
    Hovmoller {
        image: ImageData,
        mode: HovmollerMode,
    },
    VectorSlicer {
        image: ImageData,
        mode: VectorMode,
    },
    /// Several plots sharing one cell (Fig 3's combined volume + slicer).
    Combined {
        members: Vec<PlotSpec>,
    },
}

impl PlotSpec {
    /// A slicer over one field.
    pub fn slicer(image: ImageData) -> PlotSpec {
        PlotSpec::Slicer { image, overlay: None }
    }

    /// A slicer with a second-variable contour overlay.
    pub fn slicer_with_overlay(image: ImageData, overlay: ImageData) -> PlotSpec {
        PlotSpec::Slicer { image, overlay: Some(overlay) }
    }

    /// A volume rendering.
    pub fn volume(image: ImageData) -> PlotSpec {
        PlotSpec::Volume { image }
    }

    /// An isosurface at the range midpoint.
    pub fn isosurface(image: ImageData) -> PlotSpec {
        PlotSpec::Isosurface { image, color_image: None, isovalue: None }
    }

    /// An isosurface of one variable colored by another.
    pub fn isosurface_colored(image: ImageData, color_image: ImageData) -> PlotSpec {
        PlotSpec::Isosurface { image, color_image: Some(color_image), isovalue: None }
    }

    /// A Hovmöller slicer (time as the vertical dimension).
    pub fn hovmoller_slicer(image: ImageData) -> PlotSpec {
        PlotSpec::Hovmoller { image, mode: HovmollerMode::Slicer }
    }

    /// A Hovmöller volume rendering.
    pub fn hovmoller_volume(image: ImageData) -> PlotSpec {
        PlotSpec::Hovmoller { image, mode: HovmollerMode::Volume }
    }

    /// A vector slicer (glyphs by default).
    pub fn vector_slicer(image: ImageData) -> PlotSpec {
        PlotSpec::VectorSlicer { image, mode: VectorMode::Glyphs }
    }

    /// Fig 3's combined cell: a volume rendering with a slice plane.
    pub fn combined_volume_slicer(image: ImageData) -> PlotSpec {
        PlotSpec::Combined {
            members: vec![PlotSpec::volume(image.clone()), PlotSpec::slicer(image)],
        }
    }

    /// Builds the live plot object.
    pub fn build(self) -> Result<Box<dyn Plot>> {
        Ok(match self {
            PlotSpec::Slicer { image, overlay } => {
                Box::new(SlicerPlot::new(image, overlay)?)
            }
            PlotSpec::Volume { image } => Box::new(VolumePlot::new(image)?),
            PlotSpec::Isosurface { image, color_image, isovalue } => {
                Box::new(IsosurfacePlot::new(image, color_image, isovalue)?)
            }
            PlotSpec::Hovmoller { image, mode } => {
                Box::new(HovmollerPlot::new(image, mode)?)
            }
            PlotSpec::VectorSlicer { image, mode } => {
                Box::new(VectorSlicerPlot::new(image, mode)?)
            }
            PlotSpec::Combined { members } => {
                let built: Result<Vec<Box<dyn Plot>>> =
                    members.into_iter().map(|m| m.build()).collect();
                Box::new(CompositePlot::new(built?)?)
            }
        })
    }

    /// The label of this plot type's `PALETTE` row.
    pub fn palette_name(&self) -> &'static str {
        PALETTE.iter().find(|row| (row.is)(self)).map_or("Plot", |row| row.label)
    }
}

/// One plot type the package ships (§III.E's "palette of available plots,
/// exposing a list of prebuilt workflows").
#[derive(Debug, Clone, Copy)]
pub struct PaletteRow {
    /// What `prebuilt_plot_workflow`, `uvcdat plot --type` and the wall's
    /// cell list call the row.
    pub key: &'static str,
    /// Palette label shown to the user.
    pub label: &'static str,
    /// The workflow module type that builds the plot. Rows sharing a module
    /// share `build`.
    pub module: &'static str,
    /// Parameters the row fixes on that module.
    pub params: &'static [(&'static str, &'static str)],
    /// Input port of a second, spatially matching variable.
    pub second_image: Option<&'static str>,
    /// The image must carry a vector pair (`dv3d.TranslateVector`).
    pub needs_vectors: bool,
    /// The image must be a time-as-z volume (`cdat.HovmollerVolume`).
    pub needs_hovmoller: bool,
    /// The spec the module makes of its image, the `second_image` input
    /// when connected, and its parameters.
    pub build: fn(ImageData, Option<ImageData>, &Params) -> PlotSpec,
    /// Whether a spec is of this row's kind.
    pub is: fn(&PlotSpec) -> bool,
}

/// The rows one scalar variable is enough for — those a prebuilt workflow,
/// the CLI and a wall cell can build from a variable name.
pub fn single_variable_rows() -> impl Iterator<Item = &'static PaletteRow> {
    PALETTE.iter().filter(|row| row.second_image.is_none() && !row.needs_vectors)
}

fn mode_param(params: &Params) -> Option<&str> {
    params.get("mode").and_then(ParamValue::as_str)
}

const SLICER: PaletteRow = PaletteRow {
    key: "slicer",
    label: "Slicer",
    module: "dv3d.SlicerPlot",
    params: &[],
    second_image: None,
    needs_vectors: false,
    needs_hovmoller: false,
    build: |image, overlay, _| PlotSpec::Slicer { image, overlay },
    is: |spec| matches!(spec, PlotSpec::Slicer { overlay: None, .. }),
};

const VOLUME: PaletteRow = PaletteRow {
    key: "volume",
    label: "Volume",
    module: "dv3d.VolumePlot",
    build: |image, _, _| PlotSpec::volume(image),
    is: |spec| matches!(spec, PlotSpec::Volume { .. }),
    ..SLICER
};

const ISOSURFACE: PaletteRow = PaletteRow {
    key: "isosurface",
    label: "Isosurface",
    module: "dv3d.IsosurfacePlot",
    build: |image, color_image, params| {
        let isovalue = params.get("isovalue").and_then(ParamValue::as_f64).map(|v| v as f32);
        PlotSpec::Isosurface { image, color_image, isovalue }
    },
    is: |spec| matches!(spec, PlotSpec::Isosurface { color_image: None, .. }),
    ..SLICER
};

const HOVMOLLER_SLICER: PaletteRow = PaletteRow {
    key: "hovmoller_slicer",
    label: "Hovmoller Slicer",
    module: "dv3d.HovmollerPlot",
    params: &[("mode", "slicer")],
    needs_hovmoller: true,
    build: |image, _, params| {
        let mode = match mode_param(params) {
            Some("volume") => HovmollerMode::Volume,
            _ => HovmollerMode::Slicer,
        };
        PlotSpec::Hovmoller { image, mode }
    },
    is: |spec| matches!(spec, PlotSpec::Hovmoller { mode: HovmollerMode::Slicer, .. }),
    ..SLICER
};

const HOVMOLLER_VOLUME: PaletteRow = PaletteRow {
    key: "hovmoller_volume",
    label: "Hovmoller Volume",
    params: &[("mode", "volume")],
    is: |spec| matches!(spec, PlotSpec::Hovmoller { mode: HovmollerMode::Volume, .. }),
    ..HOVMOLLER_SLICER
};

const VECTOR_SLICER: PaletteRow = PaletteRow {
    key: "vector_slicer",
    label: "Vector Slicer",
    module: "dv3d.VectorSlicerPlot",
    needs_vectors: true,
    build: |image, _, params| {
        let mode = match mode_param(params) {
            Some("streamlines") => VectorMode::Streamlines,
            _ => VectorMode::Glyphs,
        };
        PlotSpec::VectorSlicer { image, mode }
    },
    is: |spec| matches!(spec, PlotSpec::VectorSlicer { .. }),
    ..SLICER
};

/// The plot palette, in the order the plot view lists it. A row named
/// above is also where its plot's [`Plot::type_name`] comes from.
pub(crate) const PALETTE: [PaletteRow; 9] = [
    SLICER,
    PaletteRow {
        key: "slicer_overlay",
        label: "Slicer + Contour Overlay",
        second_image: Some("overlay"),
        is: |spec| matches!(spec, PlotSpec::Slicer { overlay: Some(_), .. }),
        ..SLICER
    },
    VOLUME,
    ISOSURFACE,
    PaletteRow {
        key: "isosurface_colored",
        label: "Isosurface (colored by 2nd var)",
        second_image: Some("color"),
        is: |spec| matches!(spec, PlotSpec::Isosurface { color_image: Some(_), .. }),
        ..ISOSURFACE
    },
    HOVMOLLER_SLICER,
    HOVMOLLER_VOLUME,
    VECTOR_SLICER,
    // Fig 3's combined cell: a volume render and a slicer sharing one view.
    PaletteRow {
        key: "combined",
        label: "Combined",
        module: "dv3d.CombinedPlot",
        build: |image, _, _| PlotSpec::combined_volume_slicer(image),
        is: |spec| matches!(spec, PlotSpec::Combined { .. }),
        ..SLICER
    },
];

/// Range helper shared by plot constructors.
pub(crate) fn image_range(image: &ImageData) -> (f32, f32) {
    image.scalar_range().unwrap_or((0.0, 1.0))
}

/// The check a plot with a second field (`what`) runs on construction and
/// on every new frame: both fields share one grid.
pub(crate) fn same_dims(what: &str, second: Option<&ImageData>, image: &ImageData) -> Result<()> {
    match second {
        Some(s) if s.dims != image.dims => Err(Dv3dError::Config(format!(
            "{what} dims {:?} != image dims {:?}",
            s.dims, image.dims
        ))),
        _ => Ok(()),
    }
}

/// `current + delta` saturated into `0..n` (`0` when `n == 0`): where a
/// drag of `delta` grid steps leaves a slice plane, and where a non-looping
/// playhead stops. `delta` arrives off a socket; no value overflows.
pub(crate) fn offset_index(current: usize, delta: i64, n: usize) -> usize {
    let last = i64::try_from(n.saturating_sub(1)).unwrap_or(i64::MAX);
    i64::try_from(current).unwrap_or(i64::MAX).saturating_add(delta).clamp(0, last) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_image() -> ImageData {
        ImageData::from_fn([6, 6, 4], [1.0; 3], [0.0; 3], |x, y, z| (x + y + z) as f32)
    }

    #[test]
    fn specs_build_all_plot_types() {
        let specs: Vec<(PlotSpec, &str)> = vec![
            (PlotSpec::slicer(tiny_image()), "Slicer"),
            (PlotSpec::volume(tiny_image()), "Volume"),
            (PlotSpec::isosurface(tiny_image()), "Isosurface"),
            (PlotSpec::hovmoller_slicer(tiny_image()), "Hovmoller Slicer"),
            (PlotSpec::hovmoller_volume(tiny_image()), "Hovmoller Volume"),
        ];
        for (spec, name) in specs {
            assert_eq!(spec.palette_name(), name);
            let plot = spec.build().unwrap();
            assert!(!plot.type_name().is_empty());
            assert!(!plot.status_line().is_empty());
        }
        // vector slicer needs vectors
        let n = 6 * 6 * 4;
        let img = tiny_image().with_vectors(vec![[1.0, 0.0, 0.0]; n]).unwrap();
        let plot = PlotSpec::vector_slicer(img).build().unwrap();
        assert_eq!(plot.type_name(), "Vector Slicer");
    }

    #[test]
    fn offset_index_saturates_and_survives_an_empty_axis() {
        assert_eq!(offset_index(3, 2, 6), 5);
        assert_eq!(offset_index(3, i64::MAX, 6), 5);
        assert_eq!(offset_index(3, i64::MIN, 6), 0);
        assert_eq!(offset_index(usize::MAX, 1, 6), 5);
        assert_eq!(offset_index(0, 7, 0), 0);
    }

    #[test]
    fn every_spec_finds_its_palette_row() {
        let vectors = tiny_image().with_vectors(vec![[1.0, 0.0, 0.0]; 6 * 6 * 4]).unwrap();
        for row in &PALETTE {
            let image = if row.needs_vectors { vectors.clone() } else { tiny_image() };
            let second = row.second_image.map(|_| tiny_image());
            let params: Params = row
                .params
                .iter()
                .map(|(name, value)| (name.to_string(), ParamValue::Str(value.to_string())))
                .collect();
            let spec = (row.build)(image, second, &params);
            assert_eq!(spec.palette_name(), row.label);
            spec.build().unwrap();
        }
        let keys: Vec<&str> = PALETTE.iter().map(|row| row.key).collect();
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "palette keys are unique: {keys:?}");
    }

    #[test]
    fn every_plot_renders_nonempty_scene() {
        use rvtk::render::{Framebuffer, Renderer};
        let n = 6 * 6 * 4;
        let plots: Vec<Box<dyn Plot>> = vec![
            PlotSpec::slicer(tiny_image()).build().unwrap(),
            PlotSpec::volume(tiny_image()).build().unwrap(),
            PlotSpec::isosurface(tiny_image()).build().unwrap(),
            PlotSpec::hovmoller_volume(tiny_image()).build().unwrap(),
            PlotSpec::vector_slicer(
                tiny_image().with_vectors(vec![[2.0, 1.0, 0.0]; n]).unwrap(),
            )
            .build()
            .unwrap(),
        ];
        for plot in plots {
            let mut r = Renderer::new();
            plot.populate(&mut r).unwrap();
            r.reset_camera();
            let mut fb = Framebuffer::new(48, 48);
            r.render(&mut fb);
            assert!(
                fb.covered_pixels(rvtk::Color::BLACK) > 10,
                "{} rendered empty",
                plot.type_name()
            );
        }
    }
}
