//! End-to-end test: run the compiled `dv3dlint` binary over a known-dirty
//! source tree and assert the exit code and `file:line` diagnostics.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A file whose kernels read raw masked-array data at known lines.
const DIRTY: &str = r#"pub fn first(a: &MaskedArray) -> f32 {
    a.data().iter().sum()
}

pub fn second(a: &mut MaskedArray) {
    a.data_mut().fill(0.0)
}

pub fn third(a: &MaskedArray) -> usize {
    a.data().len()
}

pub fn justified(w: &MaskedArray) -> f32 {
    w.data().iter().sum() // dv3dlint: allow(mask_propagation) -- an unmasked weights buffer
}
"#;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dv3dlint-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_lint(args: &[&str], cwd: &Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dv3dlint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn dv3dlint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dirty_file_fails_with_file_line_diagnostics() {
    let dir = scratch_dir("dirty");
    let file = dir.join("dirty.rs");
    std::fs::write(&file, DIRTY).expect("write fixture");

    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&[&path], &dir);
    assert_eq!(code, 1, "violations must exit 1; stderr:\n{err}");
    // one diagnostic per construct, at the right line
    assert!(err.contains("dirty.rs:2: [mask_propagation]"), "data() at line 2:\n{err}");
    assert!(err.contains("dirty.rs:6: [mask_propagation]"), "data_mut() at line 6:\n{err}");
    assert!(err.contains("dirty.rs:10: [mask_propagation]"), "data() at line 10:\n{err}");
    // the allowed site is suppressed but counted
    assert!(!err.contains("dirty.rs:14"), "allowed line must not be reported:\n{err}");
    assert!(err.contains("3 violation(s), 1 allowed"), "summary line:\n{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_file_exits_zero() {
    let dir = scratch_dir("clean");
    let file = dir.join("clean.rs");
    std::fs::write(&file, "pub fn ok(a: &MaskedArray) -> usize { a.iter_valid().count() }\n")
        .expect("write fixture");

    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&[&path], &dir);
    assert_eq!(code, 0, "clean file must exit 0; stderr:\n{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workspace_run_on_this_repo_is_clean() {
    // the repo this tool ships in must stay lint-clean; this is the same
    // invocation CI uses
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = scratch_dir("workspace");
    let report = dir.join("report.json");
    let report_arg = report.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&["--workspace", "--json", &report_arg], &root);
    assert_eq!(code, 0, "workspace must be clean:\n{err}");
    assert!(err.contains("0 violation(s)"), "{err}");
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"total_violations\": 0"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two() {
    // a file to lint, so that the run gets past "nothing to lint" and the
    // exit code is the unreadable config's
    let dir = scratch_dir("usage");
    let file = dir.join("dirty.rs");
    std::fs::write(&file, DIRTY).expect("write fixture");
    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) =
        run_lint(&["--config", "/nonexistent/dv3dlint.toml", &path], &dir);
    assert_eq!(code, 2, "bad config must exit 2; stderr:\n{err}");
    assert!(err.contains("cannot read /nonexistent/dv3dlint.toml"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_flag_reads_the_file_it_names() {
    // a config not called dv3dlint.toml that turns `mask_propagation`
    // off: the dirty file's three findings go away only if this file is
    // read
    let dir = scratch_dir("named-config");
    let file = dir.join("dirty.rs");
    std::fs::write(&file, DIRTY).expect("write fixture");
    let config = dir.join("quiet.toml");
    std::fs::write(&config, "[rules.mask_propagation]\nenabled = false\n").expect("write config");
    let (path, config) =
        (file.to_string_lossy().into_owned(), config.to_string_lossy().into_owned());
    let (code, _out, err) = run_lint(&["--config", &config, &path], &dir);
    assert_eq!(code, 0, "the named config disables mask_propagation; stderr:\n{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_allow_directive_is_reported() {
    let dir = scratch_dir("badallow");
    let file = dir.join("bad.rs");
    std::fs::write(
        &file,
        "pub fn f(a: &MaskedArray) -> usize {\n    a.data().len() // dv3dlint: allow(mask_propagation)\n}\n",
    )
    .expect("write fixture");

    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&[&path], &dir);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("[allow_syntax]"), "reason-less allow must be flagged:\n{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_config_key_or_section_it_does_not_know_exits_two() {
    // a misspelt `enabled`, and a section for a rule dv3dlint does not
    // have, would each otherwise be read as nothing at all
    let dir = scratch_dir("unknown-key");
    let file = dir.join("dirty.rs");
    std::fs::write(&file, DIRTY).expect("write fixture");
    let path = file.to_string_lossy().into_owned();
    for (name, toml, expected) in [
        (
            "misspelt.toml",
            "[rules.mask_propagation]\nenabeld = false\n",
            "config error: unknown key `enabeld` in `[rules.mask_propagation]`",
        ),
        (
            "section.toml",
            "[rules.no_such_rule]\nenabled = false\n",
            "config error: unknown section `[rules.no_such_rule]`",
        ),
    ] {
        let config = dir.join(name);
        std::fs::write(&config, toml).expect("write config");
        let config = config.to_string_lossy().into_owned();
        let (code, _out, err) = run_lint(&["--config", &config, &path], &dir);
        assert_eq!(code, 2, "{name} must be refused; stderr:\n{err}");
        assert!(err.contains(expected), "{name}:\n{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_allow_naming_no_rule_is_reported() {
    // a directive for a rule dv3dlint does not have allows nothing; left
    // standing, it would read as a justified exception
    let dir = scratch_dir("unknown-rule");
    let file = dir.join("leftover.rs");
    std::fs::write(
        &file,
        "pub fn f(a: u32) -> u32 {\n    // dv3dlint: allow(no_such_rule) -- left over\n    a\n}\n",
    )
    .expect("write fixture");
    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&[&path], &dir);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.contains("leftover.rs:2: [allow_syntax] `no_such_rule` names no dv3dlint rule"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
