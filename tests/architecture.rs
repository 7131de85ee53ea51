//! E1 / Fig 1: the UV-CDAT architecture — tightly coupled packages
//! (CDAT, DV3D) and loosely coupled external tools wired through the
//! VisTrails workflow/provenance layer, with the spreadsheet on top.

use uvcdat::dv3d::modules::{register_all, tags};
use uvcdat::vistrails::executor::Executor;
use uvcdat::vistrails::module::{ModuleRegistry, PortType};
use uvcdat::vistrails::pipeline::Pipeline;
use uvcdat::vistrails::provenance::{Action, Vistrail};
use uvcdat::vistrails::spreadsheet::{CellBinding, Spreadsheet};
use uvcdat::vistrails::value::{ParamValue, WfData};

fn full_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    register_all(&mut reg);
    // the loosely coupled side of Fig 1: external analysis tools
    reg.register_external_tool("external", "VisIt", |_inputs, params| {
        Ok(format!(
            "visit session over {}",
            params.get("dataset").and_then(ParamValue::as_str).unwrap_or("?")
        ))
    });
    reg.register_external_tool("external", "Matlab", |inputs, _| {
        inputs
            .get("input")
            .and_then(WfData::as_float)
            .map(|x| format!("ans = {x:.2}"))
            .ok_or_else(|| "matlab needs numeric input".to_string())
    });
    reg
}

#[test]
fn tightly_coupled_packages_coexist_in_one_registry() {
    let reg = full_registry();
    // three tightly coupled packages + the loose adapters
    assert!(!reg.package_types("cdms").is_empty());
    assert!(!reg.package_types("cdat").is_empty());
    assert!(!reg.package_types("dv3d").is_empty());
    assert_eq!(reg.package_types("external").len(), 2);
}

#[test]
fn cross_package_pipeline_executes_with_typed_ports() {
    // cdms → cdat → dv3d chain, validated against port types.
    let reg = full_registry();
    let mut p = Pipeline::new();
    p.add_module(1, "cdms.SynthSource").unwrap();
    p.set_parameter(1, "nt", ParamValue::Int(2)).unwrap();
    p.set_parameter(1, "nlat", ParamValue::Int(10)).unwrap();
    p.set_parameter(1, "nlon", ParamValue::Int(20)).unwrap();
    p.add_module(2, "cdms.SelectVariable").unwrap();
    p.set_parameter(2, "name", ParamValue::Str("ta".into())).unwrap();
    p.connect((1, "dataset"), (2, "dataset")).unwrap();
    p.add_module(3, "cdat.Anomaly").unwrap();
    p.connect((2, "variable"), (3, "variable")).unwrap();
    p.add_module(4, "cdat.TimeSlab").unwrap();
    p.connect((3, "variable"), (4, "variable")).unwrap();
    p.add_module(5, "dv3d.TranslateScalar").unwrap();
    p.connect((4, "variable"), (5, "variable")).unwrap();
    p.add_module(6, "dv3d.SlicerPlot").unwrap();
    p.connect((5, "image"), (6, "image")).unwrap();
    p.add_module(7, "dv3d.Cell").unwrap();
    p.connect((6, "plot"), (7, "plot")).unwrap();
    p.validate(&reg).unwrap();

    let mut exec = Executor::new(reg);
    let results = exec.execute(&p).unwrap();
    let coverage = results.output(7, "coverage").and_then(WfData::as_float).unwrap();
    assert!(coverage > 0.05, "coverage {coverage}");
    // the frame flows as an opaque rvtk type through the engine
    let frame = results.output(7, "frame").unwrap();
    assert_eq!(frame.type_tag(), tags::FRAME);
}

#[test]
fn type_mismatches_across_packages_are_caught() {
    let reg = full_registry();
    let mut p = Pipeline::new();
    p.add_module(1, "cdms.SynthSource").unwrap();
    p.add_module(2, "dv3d.TranslateScalar").unwrap();
    // Dataset → variable port: wrong opaque tag
    p.connect((1, "dataset"), (2, "variable")).unwrap();
    assert!(matches!(
        p.validate(&reg),
        Err(uvcdat::vistrails::WfError::TypeMismatch { .. })
    ));
}

#[test]
fn loosely_coupled_tools_run_in_workflows() {
    let reg = full_registry();
    let mut p = Pipeline::new();
    p.add_module(1, "external.VisIt").unwrap();
    p.set_parameter(1, "dataset", ParamValue::Str("merra2".into())).unwrap();
    let mut exec = Executor::new(reg);
    let out = exec.execute(&p).unwrap();
    assert_eq!(
        out.output(1, "result").and_then(|d| d.as_str()),
        Some("visit session over merra2")
    );
}

#[test]
fn spreadsheet_binds_provenance_versions_and_reloads() {
    // The UV-CDAT GUI model: a spreadsheet whose cells are provenance
    // versions; saving keeps everything reproducible.
    let mut vt = Vistrail::new("session");
    let v1 = vt
        .add_actions(
            Vistrail::ROOT,
            vec![
                Action::AddModule { id: 1, type_name: "cdms.SynthSource".into() },
                Action::AddModule { id: 2, type_name: "cdms.SelectVariable".into() },
                Action::SetParameter {
                    module: 2,
                    name: "name".into(),
                    value: ParamValue::Str("ta".into()),
                },
                Action::AddConnection { from: (1, "dataset".into()), to: (2, "dataset".into()) },
            ],
        )
        .unwrap();
    vt.tag(v1, "ta pipeline").unwrap();

    let mut sheet = Spreadsheet::new("main", 2, 2);
    sheet
        .set_cell((0, 0), CellBinding { version: v1, sink: 2, label: "ta".into() })
        .unwrap();
    sheet.set_active((0, 0), true).unwrap();
    let saved = sheet.save_with_provenance(&vt).unwrap();

    let (sheet2, vt2) = Spreadsheet::load_with_provenance(&saved).unwrap();
    assert_eq!(sheet2.cell((0, 0)).unwrap().version, v1);
    let p = vt2.materialize(vt2.tagged("ta pipeline").unwrap()).unwrap();
    p.validate(&full_registry()).unwrap();
}

#[test]
fn external_tool_type_is_any_and_composes() {
    // any numeric output can feed the Matlab adapter
    let reg = full_registry();
    let mut p = Pipeline::new();
    p.add_module(1, "cdms.SynthSource").unwrap();
    p.set_parameter(1, "nlat", ParamValue::Int(6)).unwrap();
    p.set_parameter(1, "nlon", ParamValue::Int(12)).unwrap();
    p.add_module(2, "cdms.SelectVariable").unwrap();
    p.set_parameter(2, "name", ParamValue::Str("pr".into())).unwrap();
    p.connect((1, "dataset"), (2, "dataset")).unwrap();
    // reuse the dv3d.Cell's Float coverage output as the numeric input
    p.add_module(3, "dv3d.TranslateScalar").unwrap();
    p.add_module(4, "cdat.TimeSlab").unwrap();
    p.connect((2, "variable"), (4, "variable")).unwrap();
    p.connect((4, "variable"), (3, "variable")).unwrap();
    p.add_module(5, "dv3d.SlicerPlot").unwrap();
    p.connect((3, "image"), (5, "image")).unwrap();
    p.add_module(6, "dv3d.Cell").unwrap();
    p.connect((5, "plot"), (6, "plot")).unwrap();
    p.add_module(7, "external.Matlab").unwrap();
    p.connect((6, "coverage"), (7, "input")).unwrap();
    p.validate(&reg).unwrap();
    let mut exec = Executor::new(reg);
    let out = exec.execute(&p).unwrap();
    let text = out.output(7, "result").and_then(|d| d.as_str()).unwrap();
    assert!(text.starts_with("ans = "), "{text}");
}

#[test]
fn port_type_helper_matches_runtime_values() {
    // PortType::Opaque tags line up with what the modules actually emit.
    let t = PortType::Opaque(tags::VARIABLE.into());
    let ds = uvcdat::cdms::synth::SynthesisSpec::new(1, 1, 4, 8).build();
    let v = ds.variable("ta").unwrap().clone();
    assert!(t.accepts(&WfData::opaque(tags::VARIABLE, v)));
    assert!(!t.accepts(&WfData::opaque(tags::DATASET, 3u8)));
}

/// The text of `path` under the repository root.
fn repo_file(path: &std::path::Path) -> String {
    std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the TOML table `[name]` in `manifest`, up to the next table.
fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let lines = manifest.lines().skip_while(|l| l.trim() != header).skip(1);
    lines.take_while(|l| !l.starts_with('[')).map(str::trim).collect()
}

/// The first-party crates' paths: the root package and each of `crates/`.
fn first_party() -> Vec<std::path::PathBuf> {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates).unwrap().map(|e| e.unwrap().path()).collect();
    dirs.sort();
    dirs.insert(0, std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The lint floor: every first-party manifest opts into the workspace
/// `[lints]` table, and that table forbids `unsafe_code`, denies
/// `unused_must_use` and `dead_code`, and denies iterating a hash map (whose
/// order changes from process to process).
#[test]
fn every_crate_takes_the_workspace_lint_floor() {
    for dir in first_party() {
        let manifest = repo_file(&dir.join("Cargo.toml"));
        let lints = toml_table(&manifest, "lints");
        let at = dir.display();
        assert!(lints.contains(&"workspace = true"), "{at}: no [lints] workspace = true");
    }
    let root = repo_file(std::path::Path::new("Cargo.toml"));
    let rust = toml_table(&root, "workspace.lints.rust");
    for lint in ["unsafe_code = \"forbid\"", "unused_must_use = \"deny\"", "dead_code = \"deny\""] {
        assert!(rust.contains(&lint), "[workspace.lints.rust] lacks {lint}");
    }
    let clippy = toml_table(&root, "workspace.lints.clippy");
    assert!(clippy.contains(&"iter_over_hash_type = \"deny\""), "{clippy:?}");
}

/// Every public `*Error` enum is `#[non_exhaustive]`, so a variant can be
/// added without breaking callers, and its `Error` impl has a `source()`, so
/// the error it wraps reaches whoever reports it.
#[test]
fn every_public_error_is_non_exhaustive_and_has_a_source() {
    let mut files = Vec::new();
    for dir in first_party() {
        rust_files(&dir.join("src"), &mut files);
    }
    let mut seen = 0;
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let name = line.strip_prefix("pub enum ").and_then(|r| r.strip_suffix(" {"));
            let Some(name) = name else {
                continue;
            };
            if !name.ends_with("Error") {
                continue;
            }
            seen += 1;
            let attrs = lines[..i].iter().rev();
            let mut attrs = attrs.take_while(|l| l.starts_with("#[") || l.starts_with("///"));
            assert!(
                attrs.any(|l| *l == "#[non_exhaustive]"),
                "{}: {name} is not #[non_exhaustive]",
                file.display()
            );
            let impl_at = text.find(&format!("impl std::error::Error for {name} {{"));
            let body = impl_at.map(|at| &text[at..at + text[at..].find("\n}").unwrap_or(0)]);
            assert!(
                body.is_some_and(|b| b.contains("fn source(")),
                "{}: {name} has no Error impl with a source()",
                file.display()
            );
        }
    }
    assert!(seen >= 7, "found {seen} public error enums");
}
