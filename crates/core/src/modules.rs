//! VisTrails package registration: CDMS, CDAT and DV3D as workflow
//! modules, plus the prebuilt plot workflows the palette exposes.
//!
//! This is the "tightly coupled integration" of Fig 1: each library's
//! functionality becomes typed modules in the [`ModuleRegistry`], so users
//! can compose them in the workflow builder, execute them with caching, and
//! have every edit recorded as provenance. (The loosely coupled path —
//! external tools like R or MatLab — uses
//! `ModuleRegistry::register_external_tool`; see the integration tests.)
//!
//! The list of plot types is `crate::plots::PALETTE`: the plot modules
//! are registered by walking it, and a prebuilt workflow, `uvcdat plot
//! --type` and a hyperwall cell each look a row up by key and build their
//! cell through the one chain [`cell_chain_actions`] records.

// Hot path: on a wall client the pipeline's parameters arrive off a socket.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::cell::Dv3dCell;
use crate::plots::{single_variable_rows, PaletteRow, PlotSpec, PALETTE};
use crate::translation::{translate_scalar, translate_vector, TranslationOptions};
use cdms::synth::SynthesisSpec;
use cdms::{Dataset, Variable};
use rvtk::render::Framebuffer;
use vistrails::executor::Executor;
use vistrails::module::{single, ModuleRegistry, PortType};
use vistrails::pipeline::{ModuleId, Pipeline};
use vistrails::provenance::{Action, VersionId, Vistrail};
use vistrails::value::{ParamValue, Params, WfData};
use vistrails::WfError;

/// Opaque type tags used on ports.
pub mod tags {
    pub const DATASET: &str = "cdms.Dataset";
    pub const VARIABLE: &str = "cdms.Variable";
    pub(crate) const IMAGE: &str = "rvtk.ImageData";
    pub(crate) const PLOT: &str = "dv3d.PlotSpec";
    pub const FRAME: &str = "rvtk.Frame";
}

fn exec_err(msg: impl std::fmt::Display) -> WfError {
    WfError::Execution { module: 0, message: msg.to_string() }
}

type Inputs = std::collections::BTreeMap<String, WfData>;

/// The opaque `T` connected to `port`, if any.
fn input<T: Clone + Send + Sync + 'static>(inputs: &Inputs, port: &str) -> Option<T> {
    inputs.get(port).and_then(|d| d.as_opaque::<T>()).map(|v| (*v).clone())
}

fn need_var(inputs: &Inputs, port: &str) -> Result<Variable, WfError> {
    input(inputs, port).ok_or_else(|| exec_err(format!("missing '{port}' variable input")))
}

fn param_i64(params: &Params, name: &str, default: i64) -> i64 {
    params.get(name).and_then(ParamValue::as_i64).unwrap_or(default)
}

fn param_f64(params: &Params, name: &str, default: f64) -> f64 {
    params.get(name).and_then(ParamValue::as_f64).unwrap_or(default)
}

/// Longest axis a module will make: a 0.09° global grid, finer than any
/// model output the paper's desktop tools browse.
pub(crate) const MAX_AXIS_LEN: usize = 1 << 12;
/// Most cells one synthesized or regridded field may hold: 256 MiB of
/// `f32`, eight times the benchmark's whole 33 MB file.
const MAX_FIELD_CELLS: usize = 1 << 26;
/// Longest side of a rendered cell: a 4K display panel. A square frame
/// that size is ≈ 340 MB of `Framebuffer`.
const MAX_CELL_PX: usize = 1 << 12;

/// A count, size or index parameter as a `usize` in `0..=max`. Parameters
/// arrive in `AssignWorkflow` messages and saved vistrails, so a negative
/// or absurd one is an error naming the module, the parameter and the
/// value — never a wrapped cast or an allocation sized by it.
fn param_usize(
    params: &Params,
    module: &str,
    name: &str,
    default: usize,
    max: usize,
) -> Result<usize, WfError> {
    let Some(value) = params.get(name).and_then(ParamValue::as_i64) else {
        return Ok(default);
    };
    usize::try_from(value).ok().filter(|&v| v <= max).ok_or_else(|| {
        exec_err(format!("{module}: parameter '{name}' = {value} is outside 0..={max}"))
    })
}

/// Refuses a field of the given axis lengths when it would hold more than
/// [`MAX_FIELD_CELLS`] cells.
fn field_cells(module: &str, dims: &[usize]) -> Result<(), WfError> {
    match dims.iter().try_fold(1usize, |cells, &d| cells.checked_mul(d)) {
        Some(cells) if cells <= MAX_FIELD_CELLS => Ok(()),
        _ => Err(exec_err(format!("{module}: a {dims:?} field is over {MAX_FIELD_CELLS} cells"))),
    }
}

/// Registers the `cdms`, `cdat` and `dv3d` packages into a registry.
pub fn register_all(reg: &mut ModuleRegistry) {
    register_cdms(reg);
    register_cdat(reg);
    register_dv3d(reg);
}

fn register_cdms(reg: &mut ModuleRegistry) {
    // Synthetic-data source (our ESG/model-output stand-in).
    reg.register_fn(
        "cdms",
        "SynthSource",
        &[],
        &[("dataset", PortType::Opaque(tags::DATASET.into()))],
        |_inputs, params| {
            let axis = |name, default| {
                param_usize(params, "cdms.SynthSource", name, default, MAX_AXIS_LEN)
            };
            let (nt, nlev, nlat, nlon) =
                (axis("nt", 4)?, axis("nlev", 4)?, axis("nlat", 16)?, axis("nlon", 32)?);
            field_cells("cdms.SynthSource", &[nt, nlev, nlat, nlon])?;
            let spec = SynthesisSpec::new(nt, nlev, nlat, nlon)
                .seed(param_i64(params, "seed", 42) as u64);
            Ok(single("dataset", WfData::opaque(tags::DATASET, spec.build())))
        },
    );
    // Open a .ncr file.
    reg.register_fn(
        "cdms",
        "OpenFile",
        &[],
        &[("dataset", PortType::Opaque(tags::DATASET.into()))],
        |_inputs, params| {
            let path = params
                .get("path")
                .and_then(ParamValue::as_str)
                .ok_or_else(|| exec_err("OpenFile needs a 'path' parameter"))?;
            let ds = Dataset::open(path).map_err(exec_err)?;
            Ok(single("dataset", WfData::opaque(tags::DATASET, ds)))
        },
    );
    // Select one variable (optionally one timestep) from a dataset.
    reg.register_fn(
        "cdms",
        "SelectVariable",
        &[("dataset", PortType::Opaque(tags::DATASET.into()))],
        &[("variable", PortType::Opaque(tags::VARIABLE.into()))],
        |inputs, params| {
            let ds = inputs
                .get("dataset")
                .and_then(|d| d.as_opaque::<Dataset>())
                .ok_or_else(|| exec_err("missing 'dataset' input"))?;
            let name = params
                .get("name")
                .and_then(ParamValue::as_str)
                .ok_or_else(|| exec_err("SelectVariable needs a 'name' parameter"))?;
            let mut var = ds.require(name).map_err(exec_err)?.clone();
            // A negative index (the default) means "all timesteps", and a
            // static field (orography, land fraction) has none to pick from.
            let timed = var.axis_index(cdms::axis::AxisKind::Time).is_some();
            if timed && param_i64(params, "time_index", -1) >= 0 {
                let t = param_usize(params, "cdms.SelectVariable", "time_index", 0, usize::MAX)?;
                var = var.time_slab(t).map_err(exec_err)?;
            }
            Ok(single("variable", WfData::opaque(tags::VARIABLE, var)))
        },
    );
}

fn register_cdat(reg: &mut ModuleRegistry) {
    // every cdat module maps the `variable` input to the `variable` output
    fn var_op(
        reg: &mut ModuleRegistry,
        name: &str,
        op: impl Fn(&Variable, &Params) -> Result<Variable, WfError> + Send + Sync + 'static,
    ) {
        let port = [("variable", PortType::Opaque(tags::VARIABLE.into()))];
        reg.register_fn("cdat", name, &port, &port, move |inputs, params| {
            let out = op(&need_var(inputs, "variable")?, params)?;
            Ok(single("variable", WfData::opaque(tags::VARIABLE, out)))
        });
    }
    var_op(reg, "Anomaly", |v, _| cdat::climatology::anomaly(v).map_err(exec_err));
    var_op(reg, "TimeSlab", |v, params| {
        let t = param_usize(params, "cdat.TimeSlab", "index", 0, usize::MAX)?;
        v.time_slab(t).map_err(exec_err)
    });
    var_op(reg, "Regrid", |v, params| {
        let nlat = param_usize(params, "cdat.Regrid", "nlat", 16, MAX_AXIS_LEN)?;
        let nlon = param_usize(params, "cdat.Regrid", "nlon", 32, MAX_AXIS_LEN)?;
        // the axes ahead of (lat, lon) are kept
        let planes = v.shape().iter().rev().skip(2).product();
        field_cells("cdat.Regrid", &[planes, nlat, nlon])?;
        let grid = cdms::RectGrid::uniform(nlat, nlon).map_err(exec_err)?;
        let method = match params.get("method").and_then(ParamValue::as_str) {
            None => cdat::regrid_plan::RegridMethod::Bilinear,
            Some(name) => cdat::regrid_plan::RegridMethod::parse(name)
                .ok_or_else(|| exec_err(format!("unknown regrid method '{name}'")))?,
        };
        cdat::regrid::regrid(v, &grid, method).map_err(exec_err)
    });
    // Pipeline caches must not outlive the regrid engine that filled them:
    // key cached outputs on the plan engine's version.
    reg.set_cache_salt("cdat.Regrid", cdat::regrid_plan::ENGINE_VERSION);
    var_op(reg, "HovmollerVolume", |v, _| cdat::hovmoller::hovmoller_volume(v).map_err(exec_err));
}

fn register_dv3d(reg: &mut ModuleRegistry) {
    let image = |port| (port, PortType::Opaque(tags::IMAGE.into()));
    let variable = |port| (port, PortType::Opaque(tags::VARIABLE.into()));
    let translation = |params: &Params| TranslationOptions {
        vertical_scale: param_f64(params, "vertical_scale", 10.0),
        time_as_vertical: None,
    };

    reg.register_fn(
        "dv3d",
        "TranslateScalar",
        &[variable("variable")],
        &[image("image")],
        move |inputs, params| {
            let v = need_var(inputs, "variable")?;
            let img = translate_scalar(&v, &translation(params)).map_err(exec_err)?;
            Ok(single("image", WfData::opaque(tags::IMAGE, img)))
        },
    );
    reg.register_fn(
        "dv3d",
        "TranslateVector",
        &[variable("u"), variable("v")],
        &[image("image")],
        move |inputs, params| {
            let (u, v) = (need_var(inputs, "u")?, need_var(inputs, "v")?);
            let img = translate_vector(&u, &v, &translation(params)).map_err(exec_err)?;
            Ok(single("image", WfData::opaque(tags::IMAGE, img)))
        },
    );
    // One plot module per module type the palette names: its ports are
    // `image` plus every second-variable port its rows declare.
    for row in &PALETTE {
        if reg.get(row.module).is_ok() {
            continue;
        }
        let seconds: Vec<&str> = PALETTE
            .iter()
            .filter(|r| r.module == row.module)
            .filter_map(|r| r.second_image)
            .collect();
        let ports: Vec<_> = std::iter::once("image").chain(seconds.iter().copied()).map(image).collect();
        let (package, name) = row.module.split_once('.').unwrap_or(("dv3d", row.module));
        let build = row.build;
        reg.register_fn(
            package,
            name,
            &ports,
            &[("plot", PortType::Opaque(tags::PLOT.into()))],
            move |inputs, params| {
                let img = input(inputs, "image")
                    .ok_or_else(|| exec_err("missing 'image' image input"))?;
                let second = seconds.iter().find_map(|port| input(inputs, port));
                Ok(single("plot", WfData::opaque(tags::PLOT, build(img, second, params))))
            },
        );
    }
    // The spreadsheet-cell sink: renders the plot to a frame.
    reg.register_fn_sink(
        "dv3d",
        "Cell",
        &[("plot", PortType::Opaque(tags::PLOT.into()))],
        &[
            ("frame", PortType::Opaque(tags::FRAME.into())),
            ("coverage", PortType::Float),
        ],
        true,
        |inputs, params| {
            let spec: PlotSpec =
                input(inputs, "plot").ok_or_else(|| exec_err("missing 'plot' input"))?;
            let name = params.get("name").and_then(ParamValue::as_str).unwrap_or("cell");
            let mut cell = Dv3dCell::try_new(name, spec).map_err(exec_err)?;
            let w = param_usize(params, "dv3d.Cell", "width", 160, MAX_CELL_PX)?.max(16);
            let h = param_usize(params, "dv3d.Cell", "height", 120, MAX_CELL_PX)?.max(16);
            let frame: Framebuffer = cell.render(w, h).map_err(exec_err)?;
            let coverage =
                frame.covered_pixels(rvtk::Color::BLACK) as f64 / (w * h) as f64;
            let mut out = single("frame", WfData::opaque(tags::FRAME, frame));
            out.insert("coverage".into(), WfData::Float(coverage));
            Ok(out)
        },
    );
}

fn add(id: ModuleId, type_name: &str) -> Action {
    Action::AddModule { id, type_name: type_name.into() }
}

fn set(module: ModuleId, name: &str, value: ParamValue) -> Action {
    Action::SetParameter { module, name: name.into(), value }
}

fn wire(from: (ModuleId, &str), to: (ModuleId, &str)) -> Action {
    Action::AddConnection { from: (from.0, from.1.into()), to: (to.0, to.1.into()) }
}

/// The actions that add the synthetic data source as module `id`.
pub fn synth_source_actions(id: ModuleId, synth: (i64, i64, i64, i64)) -> Vec<Action> {
    let (nt, nlev, nlat, nlon) = synth;
    let mut actions = vec![add(id, "cdms.SynthSource")];
    for (name, n) in [("nt", nt), ("nlev", nlev), ("nlat", nlat), ("nlon", nlon)] {
        actions.push(set(id, name, ParamValue::Int(n)));
    }
    actions
}

/// The module ids of one cell's chain, chosen by whoever builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellChain {
    pub select: ModuleId,
    /// Taken only by rows that need a time-as-z volume.
    pub hovmoller: ModuleId,
    pub translate: ModuleId,
    pub plot: ModuleId,
    pub cell: ModuleId,
}

/// The single-variable palette row called `key`; the error lists the keys
/// there are.
pub fn single_variable_row(key: &str) -> Result<&'static PaletteRow, WfError> {
    single_variable_rows().find(|row| row.key == key).ok_or_else(|| {
        let keys: Vec<&str> = single_variable_rows().map(|row| row.key).collect();
        WfError::NotFound(format!("plot type '{key}' (plot types: {})", keys.join(" ")))
    })
}

/// Records one cell's chain — *select → \[hovmoller\] → translate → plot →
/// cell* — as actions: `variable` is selected off `source`'s dataset at
/// `time_index` (negative: every timestep; a Hovmöller row takes them all
/// and stacks them), translated, plotted by `row`'s module with the row's
/// parameters, and rendered by a cell carrying `cell_params`. Prebuilt
/// workflows, the CLI and the hyperwall all build their cells with it.
pub fn cell_chain_actions(
    row: &PaletteRow,
    source: ModuleId,
    ids: &CellChain,
    variable: &str,
    time_index: i64,
    cell_params: Vec<(&str, ParamValue)>,
) -> Vec<Action> {
    let mut actions = vec![
        add(ids.select, "cdms.SelectVariable"),
        set(ids.select, "name", ParamValue::Str(variable.into())),
        wire((source, "dataset"), (ids.select, "dataset")),
    ];
    let mut field = ids.select;
    if row.needs_hovmoller {
        actions.push(add(ids.hovmoller, "cdat.HovmollerVolume"));
        actions.push(wire((ids.select, "variable"), (ids.hovmoller, "variable")));
        field = ids.hovmoller;
    } else {
        actions.push(set(ids.select, "time_index", ParamValue::Int(time_index)));
    }
    actions.extend([
        add(ids.translate, "dv3d.TranslateScalar"),
        wire((field, "variable"), (ids.translate, "variable")),
        add(ids.plot, row.module),
        wire((ids.translate, "image"), (ids.plot, "image")),
        add(ids.cell, "dv3d.Cell"),
        wire((ids.plot, "plot"), (ids.cell, "plot")),
    ]);
    for (name, value) in row.params {
        actions.push(set(ids.plot, name, ParamValue::Str((*value).into())));
    }
    for (name, value) in cell_params {
        actions.push(set(ids.cell, name, value));
    }
    actions
}

/// Executes `pipeline` up to its `plot` module and builds the cell named
/// `name` from the `PlotSpec` that module produces — how the hyperwall's
/// mirror, its display clients, its single-node baseline and the CLI each
/// come by a live cell. A caller building several cells of one pipeline
/// passes the same `exec`: the shared source is then a cache hit from the
/// second on.
pub fn cell_from_plot_stage(
    exec: &mut Executor,
    pipeline: &Pipeline,
    plot: ModuleId,
    name: &str,
) -> crate::Result<Dv3dCell> {
    let results = exec.execute_subset(pipeline, Some(plot))?;
    let spec: PlotSpec = results
        .module_outputs(plot)
        .and_then(|outputs| input(outputs, "plot"))
        .ok_or_else(|| exec_err("plot module produced no PlotSpec"))?;
    Dv3dCell::try_new(name, spec)
}

/// Identifies one prebuilt workflow (a plot-palette entry made concrete).
#[derive(Debug, Clone)]
pub struct PrebuiltWorkflow {
    /// The provenance tree containing the workflow.
    pub vistrail: Vistrail,
    /// The version to materialize.
    pub version: VersionId,
    /// The cell (sink) module id.
    pub cell_module: ModuleId,
}

/// Builds the prebuilt "variable → translate → plot → cell" workflow for a
/// single-variable palette row, entirely through provenance actions (so
/// the whole construction is recorded and branchable). `plot` is the row's
/// key; see [`single_variable_row`].
pub fn prebuilt_plot_workflow(
    plot: &str,
    variable: &str,
    synth: (i64, i64, i64, i64),
) -> Result<PrebuiltWorkflow, WfError> {
    let row = single_variable_row(plot)?;
    let ids = CellChain { select: 2, hovmoller: 3, translate: 10, plot: 11, cell: 12 };
    let cell_name = ParamValue::Str(format!("{variable} {plot}"));
    let mut actions = synth_source_actions(1, synth);
    actions.extend(cell_chain_actions(row, 1, &ids, variable, 0, vec![("name", cell_name)]));
    let mut vt = Vistrail::new(&format!("{plot} of {variable}"));
    let version = vt.add_actions(Vistrail::ROOT, actions)?;
    vt.tag(version, "prebuilt")?;
    Ok(PrebuiltWorkflow { vistrail: vt, version, cell_module: ids.cell })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vistrails::executor::Executor;

    fn registry() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        register_all(&mut r);
        r
    }

    #[test]
    fn packages_register_expected_modules() {
        let r = registry();
        for t in [
            "cdms.SynthSource",
            "cdms.OpenFile",
            "cdms.SelectVariable",
            "cdat.Anomaly",
            "cdat.TimeSlab",
            "cdat.Regrid",
            "cdat.HovmollerVolume",
            "dv3d.TranslateScalar",
            "dv3d.TranslateVector",
            "dv3d.SlicerPlot",
            "dv3d.VolumePlot",
            "dv3d.IsosurfacePlot",
            "dv3d.HovmollerPlot",
            "dv3d.VectorSlicerPlot",
            "dv3d.CombinedPlot",
            "dv3d.Cell",
        ] {
            assert!(r.get(t).is_ok(), "missing {t}");
        }
        assert!(r.descriptor("dv3d.Cell").unwrap().is_sink);
    }

    #[test]
    fn prebuilt_slicer_executes_end_to_end() {
        let wf = prebuilt_plot_workflow("slicer", "ta", (2, 3, 12, 24)).unwrap();
        let pipeline = wf.vistrail.materialize(wf.version).unwrap();
        let mut exec = Executor::new(registry());
        let results = exec.execute(&pipeline).unwrap();
        let coverage = results
            .output(wf.cell_module, "coverage")
            .and_then(WfData::as_float)
            .unwrap();
        assert!(coverage > 0.05, "cell rendered {coverage} coverage");
        let frame = results
            .output(wf.cell_module, "frame")
            .and_then(|d| d.as_opaque::<Framebuffer>())
            .unwrap();
        assert_eq!(frame.width(), 160);
    }

    #[test]
    fn prebuilt_combined_executes() {
        let wf = prebuilt_plot_workflow("combined", "ta", (1, 3, 10, 20)).unwrap();
        let pipeline = wf.vistrail.materialize(wf.version).unwrap();
        let mut exec = Executor::new(registry());
        let results = exec.execute(&pipeline).unwrap();
        let cov = results
            .output(wf.cell_module, "coverage")
            .and_then(WfData::as_float)
            .unwrap();
        assert!(cov > 0.05, "combined cell coverage {cov}");
    }

    #[test]
    fn prebuilt_hovmoller_executes() {
        let wf = prebuilt_plot_workflow("hovmoller_volume", "wave", (6, 1, 12, 24)).unwrap();
        let pipeline = wf.vistrail.materialize(wf.version).unwrap();
        let mut exec = Executor::new(registry());
        let results = exec.execute(&pipeline).unwrap();
        assert!(results
            .output(wf.cell_module, "coverage")
            .and_then(WfData::as_float)
            .unwrap()
            > 0.01);
    }

    #[test]
    fn unknown_prebuilt_rejected() {
        assert!(prebuilt_plot_workflow("sparkles", "ta", (1, 1, 4, 8)).is_err());
    }

    /// Every single-variable palette row is a working prebuilt workflow;
    /// rows needing a second variable or a vector pair are not offered.
    #[test]
    fn every_single_variable_row_is_a_prebuilt_workflow() {
        let mut exec = Executor::new(registry());
        for row in single_variable_rows() {
            // a Hovmöller volume stacks the timesteps of a surface field
            let variable = if row.needs_hovmoller { "pr" } else { "ta" };
            let wf = prebuilt_plot_workflow(row.key, variable, (2, 3, 12, 24)).unwrap();
            let pipeline = wf.vistrail.materialize(wf.version).unwrap();
            pipeline.validate(exec.registry()).unwrap();
            let coverage = exec
                .execute(&pipeline)
                .unwrap()
                .output(wf.cell_module, "coverage")
                .and_then(WfData::as_float)
                .unwrap();
            assert!(coverage > 0.0, "{} rendered nothing", row.key);
        }
        assert_eq!(single_variable_rows().count(), 6);
        for key in ["slicer_overlay", "isosurface_colored", "vector_slicer"] {
            let err = prebuilt_plot_workflow(key, "ta", (1, 1, 4, 8)).unwrap_err().to_string();
            assert!(err.contains("hovmoller_volume") && err.contains("combined"), "{err}");
        }
    }

    /// A camera op given to a cell before its first render turns the view
    /// that render shows: "op, then render" draws what "render, op, render"
    /// draws, for every op but `Reset` and every single-variable row.
    #[test]
    fn a_camera_op_before_the_first_render_is_applied() {
        use crate::interaction::{CameraOp, ConfigOp};
        let mut exec = Executor::new(registry());
        let ops = [
            CameraOp::Azimuth(30.0),
            CameraOp::Elevation(-20.0),
            CameraOp::Zoom(1.5),
            CameraOp::Pan(0.1, -0.05),
            CameraOp::Roll(15.0),
        ];
        for row in single_variable_rows() {
            let variable = if row.needs_hovmoller { "pr" } else { "ta" };
            let wf = prebuilt_plot_workflow(row.key, variable, (2, 3, 12, 24)).unwrap();
            let pipeline = wf.vistrail.materialize(wf.version).unwrap();
            let plot = pipeline
                .inputs_of(wf.cell_module)
                .into_iter()
                .find(|c| c.to_port == "plot")
                .unwrap()
                .from_module;
            for op in ops.map(ConfigOp::Camera) {
                let mut early = cell_from_plot_stage(&mut exec, &pipeline, plot, row.key).unwrap();
                early.configure(&op).unwrap();
                let early = early.render(64, 48).unwrap().to_rgba8();
                let mut late = cell_from_plot_stage(&mut exec, &pipeline, plot, row.key).unwrap();
                late.render(64, 48).unwrap();
                late.configure(&op).unwrap();
                let late = late.render(64, 48).unwrap().to_rgba8();
                assert!(early == late, "{}: {op:?} before the first render was lost", row.key);
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// Nothing moved: what a prebuilt workflow materializes to, and the
    /// module types and ports `register_all` registers (sorted; `!` marks
    /// a sink), both recorded before the plot modules were derived from
    /// the palette.
    #[test]
    fn prebuilt_pipeline_and_registered_ports_are_pinned() {
        let wf = prebuilt_plot_workflow("hovmoller_volume", "pr", (4, 1, 8, 16)).unwrap();
        let json = wf.vistrail.materialize(wf.version).unwrap().to_json().unwrap();
        assert_eq!((json.len(), fnv1a(json.as_bytes())), (845, 0x8ef7_5a58_5e75_2298), "{json}");

        let reg = registry();
        let mut listing = String::new();
        for name in reg.type_names() {
            let d = reg.descriptor(&name).unwrap();
            let ports = |ports: &[vistrails::module::PortSpec]| {
                let each: Vec<String> =
                    ports.iter().map(|p| format!("{}:{:?}", p.name, p.port_type)).collect();
                each.join(",")
            };
            let sink = if d.is_sink { "!" } else { "" };
            listing.push_str(&format!("{name}({})->({}){sink};", ports(&d.inputs), ports(&d.outputs)));
        }
        assert_eq!(
            (listing.len(), fnv1a(listing.as_bytes())),
            (1373, 0x0507_e2ba_7bf2_8c29),
            "{listing}"
        );
    }

    /// Parameters arrive off sockets and out of saved files: a negative or
    /// absurd size is an error naming it, not a wrapped cast or an
    /// allocation.
    #[test]
    fn hostile_size_parameters_are_errors() {
        let wf = prebuilt_plot_workflow("slicer", "ta", (1, 2, 8, 16)).unwrap();
        let mut base = wf.vistrail.materialize(wf.version).unwrap();
        base.add_module(20, "cdat.Regrid").unwrap();
        base.connect((2, "variable"), (20, "variable")).unwrap();
        let mut exec = Executor::new(registry());
        exec.execute(&base).unwrap();
        for (module, name, value, type_name) in [
            (1, "nlat", -1, "cdms.SynthSource"),
            (1, "nt", 1 << 40, "cdms.SynthSource"),
            (20, "nlon", i64::MAX, "cdat.Regrid"),
            (12, "width", 1_000_000_000, "dv3d.Cell"),
            (12, "height", -3, "dv3d.Cell"),
        ] {
            let mut p = base.clone();
            p.set_parameter(module, name, ParamValue::Int(value)).unwrap();
            match exec.execute(&p) {
                Err(WfError::Execution { module: at, message }) => {
                    assert_eq!(at, module);
                    for part in [type_name, name, &value.to_string()] {
                        assert!(message.contains(part), "'{message}' does not name {part}");
                    }
                }
                other => panic!("{type_name}.{name} = {value}: {:?}", other.map(|_| ())),
            }
        }
        // four axes under the per-axis ceiling can still multiply past a field's
        let mut p = base.clone();
        for name in ["nt", "nlat", "nlon"] {
            p.set_parameter(1, name, ParamValue::Int(4096)).unwrap();
        }
        assert!(exec.execute(&p).is_err());
        // "all timesteps" keeps its spelling
        let mut p = base.clone();
        p.set_parameter(2, "time_index", ParamValue::Int(-1)).unwrap();
        p.delete_module(10).unwrap();
        assert!(exec.execute_subset(&p, Some(2)).is_ok());
    }

    #[test]
    fn select_variable_validates() {
        let r = registry();
        let m = r.get("cdms.SelectVariable").unwrap();
        // missing dataset input
        let err = m.execute(&Default::default(), &Params::new()).unwrap_err();
        assert!(matches!(err, WfError::Execution { .. }));
    }

    #[test]
    fn open_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dv3d_modules_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ncr");
        let ds = SynthesisSpec::new(1, 1, 4, 8).build();
        ds.save(&path).unwrap();
        let r = registry();
        let m = r.get("cdms.OpenFile").unwrap();
        let mut params = Params::new();
        params.insert("path".into(), ParamValue::Str(path.display().to_string()));
        let out = m.execute(&Default::default(), &params).unwrap();
        let opened = out["dataset"].as_opaque::<Dataset>().unwrap();
        assert!(opened.variable("ta").is_some());
        std::fs::remove_dir_all(&dir).ok();
        // missing file errors
        let mut params = Params::new();
        params.insert("path".into(), ParamValue::Str("/nonexistent.ncr".into()));
        assert!(m.execute(&Default::default(), &params).is_err());
    }

    #[test]
    fn provenance_branch_changes_plot_type() {
        // Branch the prebuilt slicer into a volume plot at the same parent —
        // the §III.F "switch back and forth between branches" workflow.
        let wf = prebuilt_plot_workflow("slicer", "ta", (1, 3, 10, 20)).unwrap();
        let mut vt = wf.vistrail.clone();
        // find the version path, branch from the head by swapping module 11
        let head = wf.version;
        let branch = vt
            .add_actions(
                head,
                vec![
                    Action::DeleteModule { id: 11 },
                    Action::AddModule { id: 21, type_name: "dv3d.VolumePlot".into() },
                    Action::AddConnection { from: (10, "image".into()), to: (21, "image".into()) },
                    Action::AddConnection { from: (21, "plot".into()), to: (12, "plot".into()) },
                ],
            )
            .unwrap();
        let mut exec = Executor::new(registry());
        // both versions still materialize and run
        let slicer_cov = exec
            .execute(&vt.materialize(head).unwrap())
            .unwrap()
            .output(12, "coverage")
            .and_then(WfData::as_float)
            .unwrap();
        let volume_cov = exec
            .execute(&vt.materialize(branch).unwrap())
            .unwrap()
            .output(12, "coverage")
            .and_then(WfData::as_float)
            .unwrap();
        assert!(slicer_cov > 0.0 && volume_cov > 0.0);
    }

    #[test]
    fn caching_skips_upstream_on_param_edit() {
        let wf = prebuilt_plot_workflow("slicer", "ta", (1, 2, 8, 16)).unwrap();
        let mut exec = Executor::new(registry());
        let p1 = wf.vistrail.materialize(wf.version).unwrap();
        exec.execute(&p1).unwrap();
        // change only the cell's size: source/translate/plot are cache hits
        let mut vt = wf.vistrail.clone();
        let v2 = vt
            .add_action(
                wf.version,
                Action::SetParameter {
                    module: 12,
                    name: "width".into(),
                    value: ParamValue::Int(64),
                },
            )
            .unwrap();
        let results = exec.execute(&vt.materialize(v2).unwrap()).unwrap();
        assert!(results.cache_hits() >= 4, "hits: {}", results.cache_hits());
    }
}
