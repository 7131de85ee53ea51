//! End-to-end test: run the compiled `dv3dlint` binary over a known-dirty
//! source tree and assert the exit code and `file:line` diagnostics.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A file violating several rules at known lines.
const DIRTY: &str = r#"pub fn first(a: Option<u32>) -> u32 {
    a.unwrap()
}

pub fn second(b: Option<u32>) -> u32 {
    b.expect("always")
}

pub fn third() -> u32 {
    todo!()
}

pub fn justified(v: &[u32]) -> u32 {
    v.iter().sum::<u32>().checked_add(1).unwrap() // dv3dlint: allow(no_panic) -- bounded by test fixture
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
    assert!(err.contains("dirty.rs:2: [no_panic]"), "unwrap at line 2:\n{err}");
    assert!(err.contains("dirty.rs:6: [no_panic]"), "expect at line 6:\n{err}");
    assert!(err.contains("dirty.rs:10: [no_panic]"), "todo! at line 10:\n{err}");
    // the allowed site is suppressed but counted
    assert!(!err.contains("dirty.rs:14"), "allowed line must not be reported:\n{err}");
    assert!(err.contains("3 violation(s), 1 allowed"), "summary line:\n{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_file_exits_zero() {
    let dir = scratch_dir("clean");
    let file = dir.join("clean.rs");
    std::fs::write(&file, "pub fn ok(a: Option<u32>) -> u32 { a.unwrap_or(0) }\n")
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
    // a config not called dv3dlint.toml that turns `no_panic` off: the
    // dirty file's three findings go away only if this file is read
    let dir = scratch_dir("named-config");
    let file = dir.join("dirty.rs");
    std::fs::write(&file, DIRTY).expect("write fixture");
    let config = dir.join("quiet.toml");
    std::fs::write(&config, "[rules.no_panic]\nenabled = false\n").expect("write config");
    let (path, config) =
        (file.to_string_lossy().into_owned(), config.to_string_lossy().into_owned());
    let (code, _out, err) = run_lint(&["--config", &config, &path], &dir);
    assert_eq!(code, 0, "the named config disables no_panic; stderr:\n{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_allow_directive_is_reported() {
    let dir = scratch_dir("badallow");
    let file = dir.join("bad.rs");
    std::fs::write(
        &file,
        "pub fn f(a: Option<u32>) -> u32 {\n    a.unwrap() // dv3dlint: allow(no_panic)\n}\n",
    )
    .expect("write fixture");

    let path = file.to_string_lossy().into_owned();
    let (code, _out, err) = run_lint(&[&path], &dir);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("[allow_syntax]"), "reason-less allow must be flagged:\n{err}");
    std::fs::remove_dir_all(&dir).ok();
}
