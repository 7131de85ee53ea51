//! The rule registry. Each rule is a module with its own unit tests against
//! inline fixture snippets; `all()` returns them in report order.
//!
//! Adding a rule (see DESIGN.md §10): create a module implementing [`Rule`],
//! add it to [`all`], give it a config section in `dv3dlint.toml` and the
//! `Config::load` lines that read it (a section `load` does not read is
//! refused), and register its allow-name (the `id()`) in the README table.

pub mod error_hygiene;
pub mod guard_across_blocking;
pub mod lint_attrs;
pub mod lock_order;
pub mod mask_propagation;
pub mod nondet_reduction;
pub mod unbounded_growth;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};

/// One lint rule. Rules are crate-scoped: the engine calls `check_crate`
/// for every crate in the workspace and the rule filters by its configured
/// scope.
pub trait Rule {
    /// Stable id — also the name used in `dv3dlint: allow(<id>)`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    );
}

/// Every shipped rule, in report order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(mask_propagation::MaskPropagation),
        Box::new(error_hygiene::ErrorHygiene),
        Box::new(lint_attrs::LintAttrs),
        Box::new(lock_order::LockOrder),
        Box::new(guard_across_blocking::GuardAcrossBlocking),
        Box::new(nondet_reduction::NondetReduction),
        Box::new(unbounded_growth::UnboundedGrowth),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixture helpers: build a one-file crate model from an inline
    //! snippet and run a single rule over it.

    use super::*;
    use crate::model::FileModel;
    use std::path::PathBuf;

    /// Runs `rule` over `src` presented as `path` in a crate named `name`.
    pub fn run_on(
        rule: &dyn Rule,
        name: &str,
        path: &str,
        src: &str,
        cfg: &Config,
    ) -> Vec<Diagnostic> {
        let file = FileModel::parse(PathBuf::from(path), src);
        let krate = CrateModel {
            name: name.into(),
            dir: PathBuf::from("."),
            files: vec![file],
            manifest: None,
            root_file: Some(PathBuf::from(path)),
        };
        let ws = Workspace {
            crates: Vec::new(),
            root_manifest: None,
            files_scanned: 1,
            analysis: std::sync::OnceLock::new(),
        };
        let mut out = Vec::new();
        rule.check_crate(&krate, &ws, cfg, &mut out);
        out
    }

    /// Like [`run_on`], but the crate is *inside* the workspace, so rules
    /// that consult the global analysis (the dataflow rules) see it.
    pub fn run_on_ws(
        rule: &dyn Rule,
        name: &str,
        path: &str,
        src: &str,
        cfg: &Config,
    ) -> Vec<Diagnostic> {
        let file = FileModel::parse(PathBuf::from(path), src);
        let krate = CrateModel {
            name: name.into(),
            dir: PathBuf::from("."),
            files: vec![file],
            manifest: None,
            root_file: Some(PathBuf::from(path)),
        };
        let ws = Workspace {
            crates: vec![krate],
            root_manifest: None,
            files_scanned: 1,
            analysis: std::sync::OnceLock::new(),
        };
        let mut out = Vec::new();
        rule.check_crate(&ws.crates[0], &ws, cfg, &mut out);
        out
    }

    pub fn cfg() -> Config {
        Config::defaults(PathBuf::from("."))
    }

    /// Lines of unsuppressed findings.
    pub fn lines(diags: &[Diagnostic]) -> Vec<u32> {
        diags.iter().filter(|d| !d.suppressed).map(|d| d.line).collect()
    }
}
