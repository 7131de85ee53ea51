//! Workspace discovery: crate models (package name + parsed source files +
//! manifest) built from the `dv3dlint.toml` crate list, or ad-hoc from
//! explicit paths.

use crate::config::{Config, ConfigError, Toml};
use crate::model::FileModel;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One crate as the rules see it.
#[derive(Debug)]
pub struct CrateModel {
    /// Package name from `Cargo.toml` (`adhoc` for path mode).
    pub name: String,
    /// Crate directory, workspace-relative.
    pub dir: PathBuf,
    /// Parsed `src/**/*.rs` files (paths workspace-relative).
    pub files: Vec<FileModel>,
    /// Crate manifest, parsed (absent in path mode).
    pub manifest: Option<Toml>,
    /// Workspace-relative path of the crate root source file, when found
    /// (`src/lib.rs`, else `src/main.rs`).
    pub root_file: Option<PathBuf>,
}

/// The whole scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    pub crates: Vec<CrateModel>,
    /// Root `Cargo.toml`, parsed (absent in path mode).
    pub root_manifest: Option<Toml>,
    pub files_scanned: usize,
    /// Lazily-built global dataflow analysis, shared by the concurrency
    /// rules (built once, on first use).
    pub analysis: OnceLock<crate::callgraph::Analysis>,
}

impl Workspace {
    /// The global two-pass analysis (call graph, lock graph, per-function
    /// facts), building it on first request.
    pub fn analysis(&self) -> &crate::callgraph::Analysis {
        self.analysis.get_or_init(|| crate::callgraph::Analysis::build(self))
    }

    /// The parsed model of the file at `path`, if it was scanned.
    pub fn file(&self, path: &Path) -> Option<&FileModel> {
        self.crates.iter().flat_map(|c| c.files.iter()).find(|f| f.path == path)
    }
}

/// Recursively lists `*.rs` under `dir`, sorted for stable diagnostics.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).map(Path::to_path_buf).unwrap_or_else(|_| path.to_path_buf())
}

fn read_source(root: &Path, path: &Path) -> Result<(PathBuf, String), ConfigError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
    Ok((rel(root, path), src))
}

/// Parses already-read sources, in input order.
fn parse_sources(sources: Vec<(PathBuf, String)>) -> Vec<FileModel> {
    sources.into_iter().map(|(path, src)| FileModel::parse(path, &src)).collect()
}

/// Builds one crate model from its directory (must contain `Cargo.toml`).
fn load_crate(root: &Path, dir_rel: &str) -> Result<CrateModel, ConfigError> {
    let dir_abs = if dir_rel == "." { root.to_path_buf() } else { root.join(dir_rel) };
    let manifest_path = dir_abs.join("Cargo.toml");
    let manifest_src = std::fs::read_to_string(&manifest_path)
        .map_err(|e| ConfigError(format!("cannot read {}: {e}", manifest_path.display())))?;
    let manifest = Toml::parse(&manifest_src)
        .map_err(|e| ConfigError(format!("{}: {}", manifest_path.display(), e.0)))?;
    let name = manifest
        .string("package", "name")
        .ok_or_else(|| ConfigError(format!("{}: no package name", manifest_path.display())))?;
    let src_dir = dir_abs.join("src");
    let mut sources = Vec::new();
    for path in rust_files(&src_dir) {
        sources.push(read_source(root, &path)?);
    }
    let files = parse_sources(sources);
    let root_file = ["src/lib.rs", "src/main.rs"]
        .iter()
        .map(|f| dir_abs.join(f))
        .find(|p| p.is_file())
        .map(|p| rel(root, &p));
    let dir = if dir_rel == "." { PathBuf::from(".") } else { PathBuf::from(dir_rel) };
    Ok(CrateModel { name, dir, files, manifest: Some(manifest), root_file })
}

/// Loads every crate in the config's crate list.
pub fn load_workspace(cfg: &Config) -> Result<Workspace, ConfigError> {
    let mut crates = Vec::new();
    for dir in &cfg.crate_dirs {
        crates.push(load_crate(&cfg.root, dir)?);
    }
    let root_manifest_src = std::fs::read_to_string(cfg.root.join("Cargo.toml"))
        .map_err(|e| ConfigError(format!("cannot read workspace Cargo.toml: {e}")))?;
    let root_manifest = Toml::parse(&root_manifest_src)
        .map_err(|e| ConfigError(format!("workspace Cargo.toml: {}", e.0)))?;
    let files_scanned = crates.iter().map(|c| c.files.len()).sum();
    Ok(Workspace {
        crates,
        root_manifest: Some(root_manifest),
        files_scanned,
        analysis: OnceLock::new(),
    })
}

/// Builds a synthetic single-crate workspace from explicit file/dir paths.
/// Crate-scoped rules treat it as every configured crate at once (the
/// crate name `*` matches any scope); manifest-based checks are skipped.
pub fn load_paths(paths: &[PathBuf]) -> Result<Workspace, ConfigError> {
    let cwd = PathBuf::from(".");
    let mut sources = Vec::new();
    for p in paths {
        if p.is_dir() {
            for f in rust_files(p) {
                sources.push(read_source(&cwd, &f)?);
            }
        } else if p.is_file() {
            sources.push(read_source(&cwd, p)?);
        } else {
            return Err(ConfigError(format!("no such path: {}", p.display())));
        }
    }
    let files = parse_sources(sources);
    let files_scanned = files.len();
    Ok(Workspace {
        crates: vec![CrateModel {
            name: "*".into(),
            dir: cwd,
            files,
            manifest: None,
            root_file: None,
        }],
        root_manifest: None,
        files_scanned,
        analysis: OnceLock::new(),
    })
}

impl CrateModel {
    /// True when this crate is in `scope` (a list of package names); the
    /// ad-hoc crate `*` is always in scope.
    pub fn in_scope(&self, scope: &[String]) -> bool {
        self.name == "*" || scope.contains(&self.name)
    }
}
