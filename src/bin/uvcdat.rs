//! `uvcdat` — the command-line face of the application.
//!
//! ```text
//! uvcdat synth  -o data.ncr [--nt 8 --nlev 6 --nlat 24 --nlon 48 --seed 42]
//! uvcdat info   data.ncr
//! uvcdat calc   data.ncr "anom = ta - avg(ta, 'time')" [-o out.ncr]
//! uvcdat plot   data.ncr --var ta --type slicer -o out.ppm
//!               [--time 0 --width 640 --height 480 --colormap viridis]
//! uvcdat wall   [--cells 15 --frames 2]
//! ```
//!
//! `--type` is the key of a single-variable row of the plot palette
//! (`dv3d::plots::PALETTE`; the usage text lists them), and `plot` builds
//! its cell through the same recorded chain of workflow modules as a
//! prebuilt workflow or a hyperwall cell.

// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use dv3d::interaction::ConfigOp;
use dv3d::modules::{cell_chain_actions, cell_from_plot_stage, single_variable_row, CellChain};
use dv3d::plots::single_variable_rows;
use std::collections::HashMap;
use std::process::ExitCode;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::cdms::Dataset;
use uvcdat::vistrails::executor::Executor;
use uvcdat::vistrails::pipeline::Pipeline;
use uvcdat::vistrails::provenance::Action;
use uvcdat::vistrails::value::ParamValue;
use uvcdat::{dv3d, hyperwall};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            let types: Vec<&str> = single_variable_rows().map(|row| row.key).collect();
            eprintln!("{USAGE}\n\nplot types: {}", types.join(" "));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  uvcdat synth  -o FILE [--nt N --nlev N --nlat N --nlon N --seed N]
  uvcdat info   FILE
  uvcdat calc   FILE EXPR [-o FILE]
  uvcdat plot   FILE --var NAME --type TYPE -o FILE.ppm
                [--time N --width N --height N --colormap NAME]
  uvcdat wall   [--cells N --frames N]";

/// Splits `args` into positional arguments and `--flag value` options
/// (`-o` reads as `--o`).
fn parse(args: &[String]) -> (Vec<&str>, HashMap<&str, &str>) {
    let mut pos = Vec::new();
    let mut opts = HashMap::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(a) = rest.next() {
        match a.strip_prefix("--").or((a == "-o").then_some("o")) {
            Some(name) => match rest.next() {
                Some(value) => {
                    opts.insert(name, value);
                }
                // a trailing `--flag` is set and empty; a trailing `-o` names no file
                None if a != "-o" => {
                    opts.insert(name, "");
                }
                None => {}
            },
            None => pos.push(a),
        }
    }
    (pos, opts)
}

fn opt_usize(opts: &HashMap<&str, &str>, name: &str, default: usize) -> Result<usize, String> {
    match opts.get(name) {
        Some(v) => v.parse().map_err(|_| format!("--{name} wants a number, got '{v}'")),
        None => Ok(default),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse(args);
    match pos.first().copied() {
        Some("synth") => cmd_synth(&opts),
        Some("info") => cmd_info(&pos, &opts),
        Some("calc") => cmd_calc(&pos, &opts),
        Some("plot") => cmd_plot(&pos, &opts),
        Some("wall") => cmd_wall(&opts),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".into()),
    }
}

fn cmd_synth(opts: &HashMap<&str, &str>) -> Result<(), String> {
    let out = opts.get("o").ok_or("synth needs -o FILE")?;
    let spec = SynthesisSpec::new(
        opt_usize(opts, "nt", 8)?,
        opt_usize(opts, "nlev", 6)?,
        opt_usize(opts, "nlat", 24)?,
        opt_usize(opts, "nlon", 48)?,
    )
    .seed(opt_usize(opts, "seed", 42)? as u64);
    let mut ds = spec.build();
    ds.id = std::path::Path::new(out)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("synth")
        .to_string();
    ds.save(out).map_err(|e| e.to_string())?;
    println!("wrote {} variables to {out}", ds.len());
    Ok(())
}

fn cmd_info(pos: &[&str], _opts: &HashMap<&str, &str>) -> Result<(), String> {
    let path = pos.get(1).ok_or("info needs a FILE")?;
    let ds = Dataset::open(path).map_err(|e| e.to_string())?;
    println!("dataset '{}' ({} variables)", ds.id, ds.len());
    for (k, v) in &ds.attributes {
        println!("  :{k} = {v}");
    }
    for var in ds.variables() {
        let axes: Vec<String> =
            var.axes.iter().map(|a| format!("{}({})", a.id, a.len())).collect();
        println!(
            "  {} [{}]  {}  \"{}\"  valid {:.1}%",
            var.id,
            axes.join(", "),
            var.units().unwrap_or("-"),
            var.long_name(),
            var.array.valid_fraction() * 100.0
        );
    }
    Ok(())
}

fn cmd_calc(pos: &[&str], opts: &HashMap<&str, &str>) -> Result<(), String> {
    let path = pos.get(1).ok_or("calc needs a FILE")?;
    let expr = pos.get(2).ok_or("calc needs an EXPR")?;
    let mut ds = Dataset::open(path).map_err(|e| e.to_string())?;
    let value = dv3d::calculator::evaluate(&mut ds, expr).map_err(|e| e.to_string())?;
    match &value {
        dv3d::calculator::CalcValue::Scalar(s) => println!("{s}"),
        dv3d::calculator::CalcValue::Variable(v) => {
            println!(
                "{} {:?} mean {:.4} (valid {:.1}%)",
                v.id,
                v.shape(),
                v.array.mean().unwrap_or(f32::NAN),
                v.array.valid_fraction() * 100.0
            );
        }
    }
    if let Some(out) = opts.get("o") {
        ds.save(out).map_err(|e| e.to_string())?;
        println!("wrote {} variables to {out}", ds.len());
    }
    Ok(())
}

fn cmd_plot(pos: &[&str], opts: &HashMap<&str, &str>) -> Result<(), String> {
    let path = pos.get(1).ok_or("plot needs a FILE")?;
    let var_name = opts.get("var").ok_or("plot needs --var NAME")?;
    let plot_type = opts.get("type").copied().unwrap_or("slicer");
    let out = opts.get("o").ok_or("plot needs -o FILE.ppm")?;
    let width = opt_usize(opts, "width", 640)?;
    let height = opt_usize(opts, "height", 480)?;
    let t = opt_usize(opts, "time", 0)?;

    let row = single_variable_row(plot_type).map_err(|e| e.to_string())?;

    // the file is module 1; the chain is recorded onto the same pipeline
    let ids = CellChain { select: 2, hovmoller: 3, translate: 10, plot: 11, cell: 12 };
    let time_index = i64::try_from(t).map_err(|_| format!("--time {t} is out of range"))?;
    let source = [
        Action::AddModule { id: 1, type_name: "cdms.OpenFile".into() },
        Action::SetParameter {
            module: 1,
            name: "path".into(),
            value: ParamValue::Str(path.to_string()),
        },
    ];
    let chain = cell_chain_actions(row, 1, &ids, var_name, time_index, vec![]);
    let mut pipeline = Pipeline::new();
    for action in source.iter().chain(&chain) {
        action.apply(&mut pipeline).map_err(|e| e.to_string())?;
    }
    let mut exec = Executor::new(uvcdat::standard_registry());
    // The cell needs the dataset's name and land fraction too: the file
    // module runs first, and is a cache hit when the chain runs.
    let opened = exec.execute_subset(&pipeline, Some(1)).map_err(|e| e.to_string())?;
    let ds = opened
        .output(1, "dataset")
        .and_then(|d| d.as_opaque::<Dataset>())
        .ok_or("the file module produced no dataset")?;
    let name = format!("{var_name} / {}", ds.id);
    let mut cell = cell_from_plot_stage(&mut exec, &pipeline, ids.plot, &name)
        .map_err(|e| e.to_string())?;
    if let Some(lf) = ds.variable("sftlf") {
        cell.set_base_map(lf).ok();
    }
    if let Some(cmap) = opts.get("colormap") {
        cell.configure(&ConfigOp::SetColormap(cmap.to_string()))
            .map_err(|e| e.to_string())?;
    }
    let fb = cell.render(width, height).map_err(|e| e.to_string())?;
    fb.save_ppm(out).map_err(|e| e.to_string())?;
    println!(
        "{plot_type} of {var_name} -> {out} ({} px covered)",
        fb.covered_pixels(uvcdat::rvtk::Color::BLACK)
    );
    Ok(())
}

fn cmd_wall(opts: &HashMap<&str, &str>) -> Result<(), String> {
    let cells = opt_usize(opts, "cells", 15)?;
    let frames = opt_usize(opts, "frames", 2)? as u64;
    let cfg = hyperwall::workflow::WallWorkflowConfig {
        n_cells: cells,
        synth: (1, 3, 16, 32),
        cell_px: (96, 72),
    };
    let report = hyperwall::cluster::run_wall(&cfg, 4, frames, &[])
        .map_err(|e| e.to_string())?;
    println!(
        "{} clients, {} frames: assign {:.1} ms, mean client render {:.1} ms",
        report.n_clients,
        frames,
        report.assign_ms,
        report.mean_client_render_ms(),
    );
    if report.degraded_frames == 0 {
        println!("every panel live: the server rendered no mirror cell");
    } else {
        println!(
            "mirror {:.1} ms per degraded panel-frame ({} panel-frames degraded)",
            report.mirror_ms_per_degraded_frame(),
            report.degraded_frames
        );
    }
    Ok(())
}
