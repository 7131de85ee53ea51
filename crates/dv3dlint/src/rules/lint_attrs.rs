//! R5 `lint_attrs`: every crate root must carry `#![forbid(unsafe_code)]`
//! (every lint in [`REQUIRE_FORBID`]), opt into the shared
//! workspace `[lints]` table (`[lints] workspace = true` in its
//! `Cargo.toml`), and the workspace root manifest must deny the agreed
//! lint set under `[workspace.lints.rust]`. This pins the invariant layer
//! in the build itself instead of in review comments.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::workspace::{CrateModel, Workspace};
use std::path::PathBuf;

/// Lints every crate root must `#![forbid(..)]`.
pub const REQUIRE_FORBID: &[&str] = &["unsafe_code"];
/// Lints the root manifest must deny (or forbid) under
/// `[workspace.lints.rust]`.
const WORKSPACE_DENIES: &[&str] = &["unused_must_use"];

#[derive(Debug)]
pub struct LintAttrs;

impl Rule for LintAttrs {
    fn id(&self) -> &'static str {
        "lint_attrs"
    }

    fn describe(&self) -> &'static str {
        "crate roots must #![forbid(unsafe_code)] and opt into workspace [lints]"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.lint_attrs_enabled || !krate.in_scope(&cfg.lint_attrs_crates) {
            return;
        }
        // ad-hoc path mode has no manifest to check
        let Some(manifest) = &krate.manifest else { return };
        let Some(root_file) = &krate.root_file else { return };
        let Some(root_model) = krate.files.iter().find(|f| &f.path == root_file) else {
            return;
        };
        for lint in REQUIRE_FORBID {
            let want = format!("forbid({lint})");
            if !root_model.inner_attrs.iter().any(|a| a.contains(&want)) {
                out.push(Diagnostic {
                    file: root_file.clone(),
                    line: 1,
                    rule: self.id(),
                    message: format!("crate root `{}` lacks `#![{want}]`", krate.name),
                    hint: Some(format!("add `#![{want}]` at the top of the crate root")),
                    suppressed: root_model.is_allowed(self.id(), 1),
                });
            }
        }
        if manifest.boolean("lints", "workspace") != Some(true) {
            out.push(Diagnostic {
                file: krate.dir.join("Cargo.toml"),
                line: 0,
                rule: self.id(),
                message: format!(
                    "crate `{}` does not opt into the shared lint table: add \
                     `[lints]\\nworkspace = true` to its Cargo.toml",
                    krate.name
                ),
                hint: None,
                suppressed: false,
            });
        }
        // the workspace-level deny set is checked once, against the first
        // crate in the run, so the finding isn't repeated per crate
        if ws.crates.first().map(|c| c.name == krate.name).unwrap_or(true) {
            if let Some(root) = &ws.root_manifest {
                for lint in WORKSPACE_DENIES {
                    let level = root.string("workspace.lints.rust", lint);
                    if !matches!(level.as_deref(), Some("deny") | Some("forbid")) {
                        out.push(Diagnostic {
                            file: PathBuf::from("Cargo.toml"),
                            line: 0,
                            rule: self.id(),
                            message: format!(
                                "workspace manifest must set `{lint} = \"deny\"` under \
                                 `[workspace.lints.rust]`"
                            ),
                            hint: None,
                            suppressed: false,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Toml;
    use crate::model::FileModel;

    fn krate(name: &str, root_src: &str, manifest_src: &str) -> CrateModel {
        let root_file = PathBuf::from("crates/x/src/lib.rs");
        CrateModel {
            name: name.into(),
            dir: PathBuf::from("crates/x"),
            files: vec![FileModel::parse(root_file.clone(), root_src)],
            manifest: Some(Toml::parse(manifest_src).expect("manifest")),
            root_file: Some(root_file),
        }
    }

    fn ws_with(root_manifest: &str) -> Workspace {
        Workspace {
            crates: Vec::new(),
            root_manifest: Some(Toml::parse(root_manifest).expect("root manifest")),
            files_scanned: 0,
            analysis: std::sync::OnceLock::new(),
        }
    }

    const GOOD_ROOT: &str = "#![forbid(unsafe_code)]\npub fn x() {}\n";
    const GOOD_MANIFEST: &str = "[package]\nname = \"cdms\"\n[lints]\nworkspace = true\n";
    const GOOD_WS: &str = "[workspace.lints.rust]\nunused_must_use = \"deny\"\n";

    fn check(root_src: &str, manifest: &str, ws_manifest: &str) -> Vec<Diagnostic> {
        let cfg = crate::rules::testutil::cfg();
        let k = krate("cdms", root_src, manifest);
        let ws = ws_with(ws_manifest);
        let mut out = Vec::new();
        LintAttrs.check_crate(&k, &ws, &cfg, &mut out);
        out
    }

    #[test]
    fn compliant_crate_passes() {
        assert!(check(GOOD_ROOT, GOOD_MANIFEST, GOOD_WS).is_empty());
    }

    #[test]
    fn missing_forbid_attr_flagged() {
        let diags = check("pub fn x() {}\n", GOOD_MANIFEST, GOOD_WS);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("forbid(unsafe_code)"));
        assert!(diags[0].render().contains("lib.rs:1"));
    }

    #[test]
    fn missing_workspace_lints_opt_in_flagged() {
        let diags = check(GOOD_ROOT, "[package]\nname = \"cdms\"\n", GOOD_WS);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("workspace = true"));
    }

    #[test]
    fn workspace_deny_set_checked_once() {
        let diags = check(GOOD_ROOT, GOOD_MANIFEST, "[workspace]\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unused_must_use"));
    }
}
